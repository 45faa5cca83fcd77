package sent140sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"fedprox/internal/data"
)

// digest is a SHA-256 over a dataset's every token, label and train/test
// assignment, shard by shard in order.
func digest(fed *data.Federated) string {
	h := sha256.New()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, s := range fed.Shards {
		word(uint64(s.ID))
		for _, part := range [][]data.Example{s.Train, s.Test} {
			word(uint64(len(part)))
			for _, ex := range part {
				word(uint64(ex.Y))
				for _, t := range ex.Seq {
					word(uint64(t))
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGenerateDigests pins Generate's bits: every token, label and split
// of the test config. A change that moves one token fails here by name;
// TestDeterministic only compares the generator with itself.
func TestGenerateDigests(t *testing.T) {
	const want = "5d3d5ab4a70a6479d05432ce224657b5435fd37716fa064df505b0726c63e638"
	if got := digest(Generate(testConfig())); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
