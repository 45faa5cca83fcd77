package experiments

import (
	"strings"
	"testing"
)

func TestExtCodecsSweep(t *testing.T) {
	res, err := Run("ext-codecs", micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 1 {
		t.Fatalf("got %d sections, want 1", len(res.Sections))
	}
	sec := res.Sections[0]
	if len(sec.Runs) != 6 {
		t.Fatalf("got %d runs, want 6 codecs", len(sec.Runs))
	}
	if len(sec.Notes) != len(sec.Runs) {
		t.Fatalf("every run needs a bytes note: %d notes, %d runs", len(sec.Notes), len(sec.Runs))
	}
	// The raw run anchors the sweep; every labelled run carries its codec.
	if !strings.Contains(sec.Runs[0].Label, "@raw") {
		t.Fatalf("first run should be the raw baseline, got %q", sec.Runs[0].Label)
	}
	rawUp := sec.Runs[0].Final().Cost.UplinkBytes
	if rawUp == 0 {
		t.Fatal("raw baseline recorded no uplink bytes")
	}
	for _, h := range sec.Runs[2:] { // quantized/sparse runs
		if up := h.Final().Cost.UplinkBytes; up >= rawUp {
			t.Fatalf("%s: uplink %d not below raw %d", h.Label, up, rawUp)
		}
	}
}

func TestOptionsCodecAppliesToFigures(t *testing.T) {
	o := micro()
	o.Codec = "qsgd"
	o.CodecBits = 4
	res, err := Run("figure1", o)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Sections[0].Runs[0]
	if !strings.Contains(h.Label, "@qsgd(b=4)") {
		t.Fatalf("options codec not applied: label %q", h.Label)
	}
	if h.Final().Cost.UplinkBytes == 0 {
		t.Fatal("codec-enabled run recorded no uplink bytes")
	}
}

func TestOptionsCodecSkipsBiasExperiment(t *testing.T) {
	// ext-bias measures per-class accuracy, not bytes, so it runs
	// uncompressed and notes it; a global -codec must not abort it.
	o := micro()
	o.Codec = "qsgd"
	res, err := Run("ext-bias", o)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range res.Sections[0].Notes {
		if strings.Contains(n, "codec ignored") {
			found = true
		}
	}
	if !found {
		t.Fatal("ext-bias should note that the codec was ignored")
	}
}
