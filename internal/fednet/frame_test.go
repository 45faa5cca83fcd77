package fednet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

// wireUpdates returns one real encoder output per codec × width the
// wire carries: every payload shape (dense f64/f32, packed with an f64
// and an f32 scale, sparse), keyed "codec/width".
func wireUpdates(t testing.TB) map[string]*comm.Update {
	t.Helper()
	const n = 37
	rng := frand.New(9)
	w, prev := make([]float64, n), make([]float64, n)
	for i := range w {
		w[i], prev[i] = rng.Float64()-0.5, rng.Float64()-0.5
	}
	out := make(map[string]*comm.Update)
	for _, spec := range []comm.Spec{
		{Name: "raw"}, {Name: "delta+qsgd", Bits: 8}, {Name: "topk", TopK: 0.25},
		{Name: "raw", Precision: tensor.F32}, {Name: "delta+qsgd", Bits: 8, Precision: tensor.F32},
	} {
		c, err := spec.ForDevice(comm.Uplink, 3)
		if err != nil {
			t.Fatal(err)
		}
		out[spec.Name+"/"+spec.Precision.String()] = c.Encode(w, prev)
	}
	return out
}

// wireEnvelopes is the fuzz corpus and the round-trip table: a real
// message of every kind, the three Update-carrying kinds once per
// wireUpdates entry.
func wireEnvelopes(t testing.TB) map[string]Envelope {
	t.Helper()
	fed, mdl := testWorkload()
	hello := NewWorker(mdl, fed.Shards[:3], nil).hello()
	spec := comm.Spec{Name: "delta+qsgd", Bits: 8, Seed: 5, Precision: tensor.F32}.WithDefaults()
	out := map[string]Envelope{
		"hello":          {Hello: &hello},
		"welcome":        {Welcome: &Welcome{Downlink: spec, Uplink: spec}},
		"welcome/resync": {Welcome: &Welcome{Downlink: spec, Uplink: spec, EvalPrev: []float64{1, -2.5, 3e-9}}},
		"welcome/err":    {Welcome: &Welcome{Err: "fednet: coordinator requires codec \"qsgd\""}},
		"evalreply": {EvalReply: &EvalReply{EvalReply: core.EvalReply{Seq: 4, Devices: []core.DeviceEval{
			{Device: 1, TrainLoss: 0.7, TrainN: 30, Correct: 4, TestN: 9}, {Device: 5, TrainLoss: 1.25, TrainN: 12, Correct: 1, TestN: 3}}}}},
		"evalreply/err": {EvalReply: &EvalReply{EvalReply: core.EvalReply{Seq: 4}, Err: "boom"}},
		"shutdown":      {Shutdown: &Shutdown{}},
		// A worker's errored reply carries no Update; it parses as the zero one.
		"trainreply/err": {TrainReply: &TrainReply{Round: 2, Version: 2, Reply: core.Reply{Device: 8, Update: &comm.Update{}}, Err: "comm: update has 3 params, link state has 4"}},
	}
	for name, u := range wireUpdates(t) {
		out["trainrequest/"+name] = Envelope{TrainRequest: &core.Dispatch{Round: 3, Version: 7, Device: 11, Update: u, Epochs: 20, EpochBudget: 5,
			Mu: 1, LearningRate: 0.03, BatchSize: 10, BatchSeed: 0xDEADBEEFCAFE, PrivacyTag: 3}}
		out["trainreply/"+name] = Envelope{TrainReply: &TrainReply{Round: 3, Version: 7, Reply: core.Reply{Device: 11, Update: u, EpochsDone: 5}}}
		out["evalrequest/"+name] = Envelope{EvalRequest: &core.EvalRequest{Seq: 2, Update: u}}
	}
	return out
}

// TestFrameRoundTrip: parse(append(e)) deep-equals e for a real message
// of every kind, codec and width — nil-ness of every payload slice
// included, since Update.WireBytes prices by it.
func TestFrameRoundTrip(t *testing.T) {
	for name, e := range wireEnvelopes(t) {
		frame := appendFrame(nil, e)
		got, _, err := readFrame(bytes.NewReader(frame), len(frame), nil)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !reflect.DeepEqual(got, e) {
			t.Errorf("%s: round trip changed the message:\n got %+v\nwant %+v", name, got, e)
		}
	}
}

// updateHeader is the documented frame − Update.WireBytes() constant of
// the three kinds that carry an Update (length prefix included): the
// package comment's table, plus the codec name and a packed Update's Bits.
func updateHeader(kind byte, u *comm.Update) int64 {
	fixed := map[byte]int64{kindTrainRequest: 96, kindTrainReply: 50, kindEvalRequest: 24}[kind] + int64(len(u.Codec))
	if u.Packed != nil {
		fixed += 8
	}
	return fixed
}

// TestFrameBytesArePricedBytes: for every codec × width, a frame is the
// bytes Cost prices plus a header that depends on nothing but the kind,
// the codec's name and the payload shape — and stays under 128 bytes.
func TestFrameBytesArePricedBytes(t *testing.T) {
	for name, e := range wireEnvelopes(t) {
		var kind byte
		var u *comm.Update
		switch {
		case e.TrainRequest != nil:
			kind, u = kindTrainRequest, e.TrainRequest.Update
		case e.TrainReply != nil && e.TrainReply.Err == "":
			kind, u = kindTrainReply, e.TrainReply.Update
		case e.EvalRequest != nil:
			kind, u = kindEvalRequest, e.EvalRequest.Update
		default:
			continue
		}
		got := int64(len(appendFrame(nil, e))) - u.WireBytes()
		if want := updateHeader(kind, u); got != want || got > 128 {
			t.Errorf("%s: frame − WireBytes = %d bytes, want the documented %d (≤ 128)", name, got, want)
		}
	}
}

// TestLargestFramesFitTheirBounds: the bound each endpoint derives from
// what it knows admits the largest legitimate frame of every kind it can
// be owed — a full roster's Hello and EvalReply, a re-admission Welcome,
// and any error text, which the encoder cuts at maxString.
func TestLargestFramesFitTheirBounds(t *testing.T) {
	const devices, params = 1000, 5000
	long := string(bytes.Repeat([]byte("x"), 5000))
	spec := comm.Spec{Name: "delta+qsgd", Bits: 8, Seed: 5, Precision: tensor.F32}
	hello := Hello{Devices: make([]core.DeviceReg, devices), Codecs: comm.Names(), Precisions: tensor.Precisions()}
	for name, tc := range map[string]struct {
		e     Envelope
		limit int
	}{
		"hello":          {Envelope{Hello: &hello}, frameLimit(16 * devices)},
		"welcome/resync": {Envelope{Welcome: &Welcome{Downlink: spec, Uplink: spec, EvalPrev: make([]float64, params)}}, frameLimit(8 * params)},
		"welcome/err":    {Envelope{Welcome: &Welcome{Err: long}}, frameLimit(0)},
		"evalreply":      {Envelope{EvalReply: &EvalReply{EvalReply: core.EvalReply{Devices: make([]core.DeviceEval, devices)}}}, frameLimit(40 * devices)},
		"evalreply/err":  {Envelope{EvalReply: &EvalReply{Err: long}}, frameLimit(0)},
		"trainreply/err": {Envelope{TrainReply: &TrainReply{Err: long}}, frameLimit(0)},
	} {
		frame := appendFrame(nil, tc.e)
		got, _, err := readFrame(bytes.NewReader(frame), tc.limit, nil)
		if err != nil {
			t.Errorf("%s: a %d-byte frame under a %d-byte bound: %v", name, len(frame)-4, tc.limit, err)
			continue
		}
		if want := errText(tc.e); errText(got) != want[:min(len(want), maxString)] {
			t.Errorf("%s: the error text did not arrive cut to %d bytes", name, maxString)
		}
	}
}

func errText(e Envelope) string {
	switch {
	case e.Welcome != nil:
		return e.Welcome.Err
	case e.EvalReply != nil:
		return e.EvalReply.Err
	case e.TrainReply != nil:
		return e.TrainReply.Err
	}
	return ""
}

// tapListener records, per accepted connection, every byte the server
// reads and writes.
type tapListener struct {
	net.Listener
	mu   sync.Mutex
	taps []*tapConn
}

type tapConn struct {
	net.Conn
	mu      sync.Mutex   // a backend reader may still be recording its EOF when the test parses
	in, out bytes.Buffer // one reader, and writers the conn's send lock serializes
}

func (l *tapListener) Accept() (net.Conn, error) {
	raw, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: raw}
	l.mu.Lock()
	l.taps = append(l.taps, tc)
	l.mu.Unlock()
	return tc, nil
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.out.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// snapshot copies one of the conn's recorded streams for parsing.
func (c *tapConn) snapshot(b *bytes.Buffer) *bytes.Buffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.NewBuffer(bytes.Clone(b.Bytes()))
}

// TestLoopbackWireBytesAreFrameBytes: the bytes a synchronous loopback
// deployment meters are exactly the frames the protocol calls for —
// every stream parses into whole frames, the messages are counted kind by
// kind, and their lengths sum to BytesOnWire with no tolerance.
func TestLoopbackWireBytesAreFrameBytes(t *testing.T) {
	fed, mdl := testWorkload()
	const workers, rounds, k = 2, 3, 4
	cfg := core.FedProx(rounds, k, 2, 0.01, 1)
	cfg.EvalEvery = 2
	srv, err := NewServer(mdl, ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapListener{Listener: ln}
	var wg sync.WaitGroup
	for _, part := range splitShards(fed, workers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := NewWorker(mdl, part, nil).Run(ln.Addr().String()); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	hist, err := srv.RunWithListener(tap)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// count parses one direction's streams into frames: how many of each
	// message, their total length, and the header bytes (frame −
	// WireBytes) of the ones that carry an Update.
	count := func(stream func(*tapConn) *bytes.Buffer) (msgs map[string]int, total, headers int64) {
		msgs = make(map[string]int)
		for _, tc := range tap.taps {
			for r := stream(tc); r.Len() > 0; {
				before := r.Len()
				e, _, err := readFrame(r, 1<<20, nil)
				if err != nil {
					t.Fatalf("recorded stream does not parse into frames: %v", err)
				}
				n := int64(before - r.Len())
				total += n
				switch {
				case e.TrainRequest != nil:
					msgs["TrainRequest"]++
					headers += n - e.TrainRequest.Update.WireBytes()
				case e.TrainReply != nil:
					msgs["TrainReply"]++
					headers += n - e.TrainReply.Update.WireBytes()
				case e.EvalRequest != nil:
					msgs["EvalRequest"]++
					headers += n - e.EvalRequest.Update.WireBytes()
				default:
					v := reflect.ValueOf(e)
					for i := 0; i < v.NumField(); i++ {
						if !v.Field(i).IsNil() {
							msgs[v.Type().Field(i).Name]++
						}
					}
				}
			}
		}
		return msgs, total, headers
	}
	evals := len(hist.Points)
	raw := &comm.Update{Codec: "raw"}
	read, written := srv.BytesOnWire()

	msgs, total, headers := count(func(tc *tapConn) *bytes.Buffer { return tc.snapshot(&tc.in) })
	if want := map[string]int{"Hello": workers, "TrainReply": rounds * k, "EvalReply": evals * workers}; !reflect.DeepEqual(msgs, want) {
		t.Errorf("server read %v, want %v", msgs, want)
	}
	if total != read || headers != rounds*k*updateHeader(kindTrainReply, raw) {
		t.Errorf("inbound frames total %d bytes (%d of update headers), BytesOnWire read %d", total, headers, read)
	}
	msgs, total, headers = count(func(tc *tapConn) *bytes.Buffer { return tc.snapshot(&tc.out) })
	if want := map[string]int{"Welcome": workers, "TrainRequest": rounds * k, "EvalRequest": evals * workers, "Shutdown": workers}; !reflect.DeepEqual(msgs, want) {
		t.Errorf("server wrote %v, want %v", msgs, want)
	}
	wantHeaders := rounds*k*updateHeader(kindTrainRequest, raw) + int64(evals)*workers*updateHeader(kindEvalRequest, raw)
	if total != written || headers != wantHeaders {
		t.Errorf("outbound frames total %d bytes (%d of update headers, want %d), BytesOnWire written %d", total, headers, wantHeaders, written)
	}
}

// TestFrameRejections pins each way a frame can be malformed to ErrFrame,
// and the oversized length prefix to failing before the body is read.
func TestFrameRejections(t *testing.T) {
	envs := wireEnvelopes(t)
	good := appendFrame(nil, envs["trainrequest/raw/f64"])
	sparse := appendFrame(nil, envs["trainreply/topk/f64"])
	hello, welcome, evalReply := appendFrame(nil, envs["hello"]), appendFrame(nil, envs["welcome"]), appendFrame(nil, envs["evalreply"])
	var gobPeer bytes.Buffer // what a pre-frame peer opens the connection with
	if err := gob.NewEncoder(&gobPeer).Encode(&Envelope{Hello: &Hello{Codecs: comm.Names()}}); err != nil {
		t.Fatal(err)
	}
	mutate := func(frame []byte, f func([]byte) []byte) []byte {
		out := f(bytes.Clone(frame))
		le.PutUint32(out, uint32(len(out)-4))
		return out
	}
	cases := map[string][]byte{
		"oversized length prefix": {0xFF, 0xFF, 0xFF, 0x7F, kindTrainReply},
		"empty payload":           {0, 0, 0, 0},
		"unknown kind":            mutate(good, func(b []byte) []byte { b[4] = 9; return b }),
		"truncated header":        mutate(good, func(b []byte) []byte { return b[:40] }),
		"truncated payload":       mutate(good, func(b []byte) []byte { return b[:len(b)-8] }),
		"trailing bytes":          mutate(good, func(b []byte) []byte { return append(b, 0, 0, 0, 0, 0, 0, 0, 0) }),
		"N larger than payload":   mutate(good, func(b []byte) []byte { le.PutUint64(b[4+81+2+3:], 1<<40); return b }),
		"negative N":              mutate(sparse, func(b []byte) []byte { le.PutUint64(b[4+33+2+2+4:], 1<<63); return b }),
		"sparse count too large":  mutate(sparse, func(b []byte) []byte { le.PutUint32(b[4+33+2+2+4+8+1:], 1<<31); return b }),
		"unknown shape":           mutate(good, func(b []byte) []byte { b[4+81+2+3+8] = 77; return b }),
		"wrong protocol version":  mutate(hello, func(b []byte) []byte { b[5] = 0xF0; return b }),
		"hello device count":      hostileHello,
		"hello string count":      mutate(hello, func(b []byte) []byte { le.PutUint32(b[4+2+4+16*3:], 1<<20); return b }),
		"welcome resync flag":     mutate(welcome, func(b []byte) []byte { b[len(b)-1] = 2; return b }),
		"welcome ragged floats":   mutate(welcome, func(b []byte) []byte { b[len(b)-1] = 1; return append(b, 1, 2, 3) }),
		"evalreply device count":  mutate(evalReply, func(b []byte) []byte { le.PutUint32(b[4+1+8+2:], 3); return b }),
		"shutdown with a body":    mutate(appendFrame(nil, envs["shutdown"]), func(b []byte) []byte { return append(b, 0) }),
		"gob-era peer":            gobPeer.Bytes(),
	}
	for name, frame := range cases {
		// The reader fails the test if it is asked for more than the four
		// prefix bytes of the oversized frame.
		r := io.Reader(bytes.NewReader(frame))
		if name == "oversized length prefix" {
			r = io.MultiReader(bytes.NewReader(frame[:4]), iotestErr{t})
		}
		_, _, err := readFrame(r, 1<<20, nil)
		if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: got %v, want ErrFrame", name, err)
		}
	}
	if _, _, err := readFrame(bytes.NewReader(good[:len(good)-1]), 1<<20, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("stream cut mid-frame: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// hostileHello is a 13-byte first frame any dialer can send: a Hello whose
// device count declares a gigabyte of entries the frame does not hold.
var hostileHello = []byte{9, 0, 0, 0, kindHello, wireVersion, 0xFD, 0x89, 0x54, 0x40, 0, 0, 0}

type iotestErr struct{ t *testing.T }

func (r iotestErr) Read([]byte) (int, error) {
	r.t.Error("body read after an over-bound length prefix")
	return 0, io.EOF
}

// goldenFrames is the committed FuzzFrame corpus by message name: a real
// frame of each kind × codec × width (wireEnvelopes, "/" spelled "-"),
// hostileHello, and a length prefix over any bound.
func goldenFrames(t testing.TB) map[string][]byte {
	out := map[string][]byte{
		"hostile-hello":    hostileHello,
		"oversized-prefix": {0xFF, 0xFF, 0xFF, 0xFF, kindTrainRequest},
	}
	for name, e := range wireEnvelopes(t) {
		out[strings.ReplaceAll(name, "/", "-")] = appendFrame(nil, e)
	}
	return out
}

// TestFrameGolden: the socket's bytes are pinned. testdata/fuzz/FuzzFrame
// — written once and never regenerated — holds in seed#i the frame of the
// i-th goldenFrames message by name (the names FuzzFrame's seeds always
// had), and holds nothing else; each message must still encode to its
// file byte for byte. A change to what goes on the wire fails here, not
// in a peer built from another commit.
func TestFrameGolden(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzFrame")
	frames := goldenFrames(t)
	names := slices.Sorted(maps.Keys(frames))
	for i, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("seed#%d", i)))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if string(got) != fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frames[name]) {
			t.Errorf("%s no longer encodes to its golden bytes, seed#%d", name, i)
		}
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != len(names) {
		t.Errorf("%s holds %d files (%v), want the %d golden frames", dir, len(files), err, len(names))
	}
}

// FuzzFrame feeds the frame reader arbitrary streams under a tight
// bound: it must not panic, must answer ErrFrame (or the stream's own
// EOF) or a message, must not allocate past the bound whatever
// lengths and counts the bytes declare, and must hand back a message that
// shares nothing with the read buffer. The seeds are testdata/fuzz's
// golden frames (TestFrameGolden; TestFrameRoundTrip holds each message
// to parse(append(e)) == e).
func FuzzFrame(f *testing.F) {
	const limit = 2 << 10 // every seed fits; hostile prefixes do not
	f.Fuzz(func(t *testing.T, stream []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, rbuf, err := readFrame(bytes.NewReader(stream), limit, nil)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*limit {
			t.Fatalf("parsing %d bytes under a %d-byte bound allocated %d bytes", len(stream), limit, grew)
		}
		if err != nil {
			if !errors.Is(err, ErrFrame) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// What parsed must survive its own encoding: the parser admits
		// nothing the encoder cannot express. (Equality is the seeds'
		// property, TestFrameRoundTrip: NaNs and over-long strings are
		// legal input that does not compare equal to itself re-encoded.)
		frame := appendFrame(nil, e)
		if _, _, err := readFrame(bytes.NewReader(frame), 1<<30, nil); err != nil {
			t.Fatalf("a parsed frame does not re-encode to a valid one: %v\n%+v", err, e)
		}
		// The connection reuses its read buffer for the next frame: nothing
		// in the message may alias it (bulk-copied payloads least of all).
		for i := range rbuf[:cap(rbuf)] {
			rbuf[:cap(rbuf)][i] ^= 0xA5
		}
		if !bytes.Equal(appendFrame(nil, e), frame) {
			t.Fatalf("the message changed when the read buffer was overwritten\n%+v", e)
		}
	})
}

// TestFuzzSeedsFitTheFuzzBound keeps FuzzFrame's corpus meaningful: a
// seed over the bound would only ever exercise the length check.
func TestFuzzSeedsFitTheFuzzBound(t *testing.T) {
	for name, e := range wireEnvelopes(t) {
		if n := len(appendFrame(nil, e)); n > 2<<10 {
			t.Errorf("%s: %d-byte seed exceeds FuzzFrame's bound", name, n)
		}
	}
}
