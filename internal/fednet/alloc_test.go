//go:build !race

package fednet

import (
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/tensor"
)

// TestSteadyStateFrameAllocatesNoPayload: one hot frame's whole trip —
// encode, send, recv, decode, both Releases — of the benchmark's 7 850-word
// model allocates under 1 KB (the message structs), where the payload
// alone is 62.8 KB and used to be allocated three times over. The GC is
// off for the measured frames. Not under the race detector, whose
// sync.Pool drops a share of what it is handed.
func TestSteadyStateFrameAllocatesNoPayload(t *testing.T) {
	const n, frames = 7850, 200
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := newConn(dialed), newConn(accepted)
	defer tx.close()
	defer rx.close()
	rx.limit = frameLimit(8 * n)
	codec, err := comm.Spec{Name: "raw"}.ForDevice(comm.Downlink, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i)
	}
	received := make(chan error)
	go func() {
		for {
			env, err := rx.recv()
			if err == nil {
				var view []float64
				if view, err = codec.Decode(env.TrainRequest.Update, nil); err == nil && view[n-1] != w[n-1] {
					err = errors.New("the payload arrived changed")
				}
				tensor.PutVec(view)
				env.TrainRequest.Update.Release()
			}
			received <- err
			if err != nil {
				return
			}
		}
	}()
	trip := func() {
		req := core.Dispatch{Device: 3, Update: codec.Encode(w, nil)}
		if err := tx.send(Envelope{TrainRequest: &req}); err != nil {
			t.Fatal(err)
		}
		req.Update.Release()
		if err := <-received; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		trip() // fill the pools and the connections' buffers
	}
	// A GC in the window would empty the sync.Pools and charge the
	// payload buffers they refill to these frames: no GC runs in it (the
	// window ends the test, so the deferred restore ends it too).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		trip()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / frames
	t.Logf("%d bytes allocated per frame", per)
	if per >= 1<<10 {
		t.Errorf("a %d-byte frame's round trip allocated %d bytes, want < 1 KB", 8*n, per)
	}
}
