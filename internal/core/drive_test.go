package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// scriptBackend is a scripted fake Backend: it logs every call in order,
// answers Dispatch with zero-delta replies when echo is set, and hands
// out waits one entry per Wait call.
type scriptBackend struct {
	log    []string
	echo   bool
	waits  [][]Command
	failOn string // the call that returns fail
	fail   error
}

func (b *scriptBackend) call(name string) error {
	b.log = append(b.log, name)
	if name == b.failOn {
		return b.fail
	}
	return nil
}

func (b *scriptBackend) Dispatch(ds []Dispatch) ([]Reply, error) {
	seqs := make([]int, len(ds))
	var replies []Reply
	for i, d := range ds {
		seqs[i] = d.Seq
		if b.echo {
			replies = append(replies, Reply{Device: d.Device, Params: append([]float64(nil), d.View...), EpochsDone: d.Epochs})
		}
	}
	return replies, b.call(fmt.Sprint("dispatch ", seqs))
}

func (b *scriptBackend) Evaluate(Evaluate) (EvalResult, error) {
	return EvalResult{Loss: math.NaN(), Acc: math.NaN()}, b.call("eval")
}

func (b *scriptBackend) AdvanceClock(s float64) error { return b.call(fmt.Sprint("clock ", s)) }

func (b *scriptBackend) Wait() ([]Command, error) {
	if err := b.call("wait"); err != nil || len(b.waits) == 0 {
		return nil, err
	}
	next := b.waits[0]
	b.waits = b.waits[1:]
	return next, nil
}

// TestDriveRunsFIFO: commands run strictly in queue order, a run of
// consecutive Dispatches ships as one batch, and Wait is only consulted
// once the queue is empty.
func TestDriveRunsFIFO(t *testing.T) {
	b := &scriptBackend{waits: [][]Command{{AdvanceClock{3}, Done{}}}}
	end, err := Drive(nil, b, []Command{
		AdvanceClock{1}, Dispatch{Seq: 0}, Dispatch{Seq: 1}, AdvanceClock{2}, Dispatch{Seq: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := end.(Done); !ok {
		t.Fatalf("ended on %T, want Done", end)
	}
	want := []string{"clock 1", "dispatch [0 1]", "clock 2", "dispatch [2]", "wait", "clock 3"}
	if !reflect.DeepEqual(b.log, want) {
		t.Fatalf("call order %q, want %q", b.log, want)
	}
}

// bareBackend has only what every executor runs, Dispatch and Evaluate:
// embedding the interface hides the script's other methods.
type bareBackend struct{ Backend }

// TestDriveStalls: an empty queue whose Wait yields nothing, or on a
// backend with no Wait, is the stall error, not a spin.
func TestDriveStalls(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    func(*scriptBackend) Backend
		want []string
	}{
		{"Wait yields nothing", func(s *scriptBackend) Backend { return s }, []string{"dispatch [0]", "wait"}},
		{"no Wait", func(s *scriptBackend) Backend { return bareBackend{s} }, []string{"dispatch [0]"}},
	} {
		s := &scriptBackend{}
		if _, err := Drive(nil, tc.b(s), []Command{Dispatch{}}); !errors.Is(err, errStalled) {
			t.Fatalf("%s: err = %v, want the stall error", tc.name, err)
		}
		if !reflect.DeepEqual(s.log, tc.want) {
			t.Fatalf("%s: call order %q, want %q", tc.name, s.log, tc.want)
		}
	}
}

// TestDriveStopsOnBackendError: a backend error ends the loop at the
// failing command and comes back matchable with errors.Is.
func TestDriveStopsOnBackendError(t *testing.T) {
	boom := errors.New("boom")
	for _, failOn := range []string{"dispatch [0]", "clock 1", "wait"} {
		b := &scriptBackend{failOn: failOn, fail: boom}
		_, err := Drive(nil, b, []Command{Dispatch{}, AdvanceClock{1}})
		if !errors.Is(err, boom) {
			t.Fatalf("fail on %q: err = %v, want boom", failOn, err)
		}
		if last := b.log[len(b.log)-1]; last != failOn {
			t.Fatalf("fail on %q: loop went on to %q", failOn, last)
		}
	}
}

// TestDrivePauseLeavesTheRest: a windowed coordinator's pause ends Drive
// without running what is queued behind it.
func TestDrivePauseLeavesTheRest(t *testing.T) {
	b := &scriptBackend{}
	end, err := Drive(nil, b, []Command{pause{}, AdvanceClock{1}, Done{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := end.(pause); !ok {
		t.Fatalf("ended on %#v, want pause", end)
	}
	if len(b.log) != 0 {
		t.Fatalf("commands behind pause ran: %q", b.log)
	}
}

type bogusCommand struct{}

func (bogusCommand) isCommand() {}

// TestDriveUnsupportedCommand: a command the backend cannot execute, or
// one Drive does not know, is an error naming it — never skipped.
func TestDriveUnsupportedCommand(t *testing.T) {
	for _, cmd := range []Command{ObserveLoss{}, AdvanceClock{Seconds: 1}} {
		_, err := Drive(nil, bareBackend{&scriptBackend{}}, []Command{cmd, Done{}})
		if !errors.Is(err, errors.ErrUnsupported) {
			t.Fatalf("%T: err = %v, want ErrUnsupported", cmd, err)
		}
		for _, name := range []string{"core.bareBackend", fmt.Sprintf("%T", cmd)} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not name %s", err, name)
			}
		}
	}
	if _, err := Drive(nil, &scriptBackend{}, []Command{bogusCommand{}, Done{}}); err == nil || !strings.Contains(err.Error(), "core.bogusCommand") {
		t.Fatalf("unknown command: err = %v", err)
	}
}

// TestDriveFeedsCoordinator drives a real coordinator with the fake: the
// results of Evaluate and the replies Dispatch returns reach it, and what
// they provoke is queued behind what was already there.
func TestDriveFeedsCoordinator(t *testing.T) {
	mdl, fed := tinyWorkload()
	cfg := FedProx(2, 3, 1, 0.01, 1)
	cfg.EvalEvery = 1
	coord, err := NewCoordinator(mdl, cfg, CoordinatorOptions{NumDevices: fed.NumDevices()})
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]DeviceReg, fed.NumDevices())
	for i := range regs {
		regs[i] = DeviceReg{ID: i, TrainSize: fed.Fleet().TrainSize(i)}
	}
	if _, err := coord.RegisterWorker(regs); err != nil {
		t.Fatal(err)
	}
	b := &scriptBackend{echo: true}
	hist, err := runToDone(coord, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"eval", "dispatch [0 1 2]", "eval", "dispatch [0 1 2]", "eval"}
	if !reflect.DeepEqual(b.log, want) {
		t.Fatalf("call order %q, want %q", b.log, want)
	}
	if len(hist.Points) != 3 || hist.Final().Participants != 3 {
		t.Fatalf("history %+v", hist.Points)
	}
}

// TestReplyDuringEvaluationRefused: Drive answers an Evaluate before it
// delivers another reply, so a reply handed to the coordinator between
// an Evaluate command and its EvalDone is an error that names the
// device, and the evaluation is still answered as if it never came.
func TestReplyDuringEvaluationRefused(t *testing.T) {
	mdl, fed := tinyWorkload()
	coord, _, err := newSimPair(mdl, fed.Fleet(), FedProx(2, 3, 1, 0.01, 1), CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := coord.Start()
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 1 {
		t.Fatalf("Start returned %d commands, want round 0's Evaluate alone", len(cmds))
	}
	if _, ok := cmds[0].(Evaluate); !ok {
		t.Fatalf("Start returned %T, want Evaluate", cmds[0])
	}
	_, err = coord.HandleReply(Reply{Device: 4, Params: make([]float64, mdl.NumParams())})
	if err == nil || !strings.Contains(err.Error(), "device 4") || !strings.Contains(err.Error(), "evaluation is pending") {
		t.Fatalf("reply during a pending evaluation: error %v, want one naming device 4", err)
	}
	next, err := coord.EvalDone(EvalResult{Loss: 1, Acc: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(next) == 0 {
		t.Fatal("EvalDone after the refused reply returned no command")
	}
}
