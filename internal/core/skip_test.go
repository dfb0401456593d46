package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"adnet/internal/core"
	"adnet/internal/expt"
	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/temporal"
)

// everyCall steps a GraphToStar at every engine call: after each call
// it replaces the machine's own sim.Context.SkipUntil promise with "the
// very next call". On each call the machine's promise covered, with an
// empty inbox, it checks that the call delivered no message, issued no
// edge intent and left the machine's state as it was — that every call
// the engine skips for GraphToStar is one that would do nothing.
type everyCall struct {
	t       *testing.T
	inner   *core.GraphToStar
	skipTo  int              // the inner machine's next needed call, a position 2·round+phase
	before  core.GraphToStar // the state before a checked call
	checked *int             // skippable calls checked, across the run
}

func (w *everyCall) Init(ctx *sim.Context) { w.inner.Init(ctx) }

func (w *everyCall) Send(ctx *sim.Context) {
	w.step(ctx, 2*ctx.Round(), true, func() { w.inner.Send(ctx) })
	ctx.SkipUntil(ctx.Round(), true)
}

func (w *everyCall) Receive(ctx *sim.Context, inbox []sim.Message) {
	w.step(ctx, 2*ctx.Round()+1, len(inbox) == 0, func() { w.inner.Receive(ctx, inbox) })
	ctx.SkipUntil(ctx.Round()+1, false)
}

func (w *everyCall) step(ctx *sim.Context, pos int, emptyInbox bool, call func()) {
	skippable := pos < w.skipTo && emptyInbox
	effects := 0
	if skippable {
		*w.checked++
		w.inner.CopyStateTo(&w.before)
		effects = roundEffects(ctx)
	}
	call()
	if skippable {
		if got := roundEffects(ctx); got != effects {
			w.t.Errorf("node %d, position %d (skippable up to %d): the call emitted %d messages or intents",
				ctx.ID(), pos, w.skipTo, got-effects)
		}
		if !core.SameState(&w.before, w.inner) {
			w.t.Errorf("node %d, position %d (skippable up to %d): the call changed state\nbefore %+v\nafter  %+v",
				ctx.ID(), pos, w.skipTo, w.before, *w.inner)
		}
	}
	w.skipTo = w.inner.NextCall(pos)
}

// roundEffects reads, from the engine behind ctx, the messages
// delivered so far this round plus the edge intents queued: the one
// window a test outside package sim has onto what a call emitted.
func roundEffects(ctx *sim.Context) int {
	eng := reflect.ValueOf(ctx).Elem().FieldByIndex(effectFields.eng).Elem()
	batch := eng.FieldByIndex(effectFields.batch)
	return int(eng.FieldByIndex(effectFields.roundMsgs).Int()) +
		batch.FieldByIndex(effectFields.activate).Len() + batch.FieldByIndex(effectFields.deactivate).Len()
}

// effectFields are roundEffects' field paths, looked up by name once.
var effectFields = func() (f struct{ eng, batch, roundMsgs, activate, deactivate []int }) {
	field := func(t reflect.Type, name string) []int {
		sf, ok := t.FieldByName(name)
		if !ok {
			panic("roundEffects: no field " + t.String() + "." + name)
		}
		return sf.Index
	}
	ctx := reflect.TypeFor[sim.Context]()
	f.eng = field(ctx, "eng")
	eng := ctx.FieldByIndex(f.eng).Type.Elem()
	f.batch, f.roundMsgs = field(eng, "batch"), field(eng, "roundMsgs")
	batch := eng.FieldByIndex(f.batch).Type
	f.activate, f.deactivate = field(batch, "Activate"), field(batch, "Deactivate")
	return f
}()

// starRun is what TestGraphToStarSkipSoundness compares between the
// stepped-at-every-call and the skipping runs.
type starRun struct {
	err                   string
	rounds, msgs, maxMsgs int
	metrics               temporal.Metrics
	leader                graph.ID
	leaderOK              bool
	deltaDigest           uint64
}

func runStar(g *graph.Graph, f sim.Factory) starRun {
	h := fnv.New64a()
	var buf []byte
	res, err := sim.Run(g, f, sim.WithDeltaHook(func(d temporal.RoundDelta) {
		buf = binary.AppendVarint(buf[:0], int64(d.Round))
		for _, s := range [][]int32{d.Activate, d.Deactivate, d.EnvActivate, d.EnvDeactivate} {
			buf = binary.AppendVarint(buf, int64(len(s)))
			for _, v := range s {
				buf = binary.AppendVarint(buf, int64(v))
			}
		}
		buf = fmt.Appendf(buf, "%+v", d.Stats)
		h.Write(buf)
	}))
	r := starRun{deltaDigest: h.Sum64()}
	if err != nil {
		r.err = err.Error()
	}
	if res != nil {
		r.rounds, r.msgs, r.maxMsgs, r.metrics = res.Rounds, res.TotalMessages, res.MaxMessagesPerRound, res.Metrics
		r.leader, r.leaderOK = res.Leader()
	}
	return r
}

// TestGraphToStarSkipSoundness is the oracle for GraphToStar's need
// mask: over every workload family, on every call the mask lets the
// engine skip, the machine is called anyway and must do nothing; and a
// run stepped at every call equals the skipping run in its result and
// in every round's delta.
func TestGraphToStarSkipSoundness(t *testing.T) {
	t.Parallel()
	checked := 0
	for _, family := range expt.Workloads() {
		for _, n := range []int{64, 256} {
			for seed := int64(1); seed <= 8; seed++ {
				g, err := expt.Workload(family, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				star := core.NewGraphToStarFactory()
				skipping := runStar(g, star)
				stepped := runStar(g, func(id graph.ID, env sim.Env) sim.Machine {
					return &everyCall{t: t, inner: star(id, env).(*core.GraphToStar), checked: &checked}
				})
				if stepped != skipping {
					t.Errorf("%s/%d/seed %d: stepped at every call %+v, skipping %+v", family, n, seed, stepped, skipping)
				}
				if t.Failed() {
					t.FailNow()
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no skippable call was checked")
	}
	t.Logf("%d skippable calls checked", checked)
}

// TestGraphToStarLeaderSkipsReportSend pins step 1's row of the need
// mask: a leader's own report is folded at step 0, so after step 0's
// Receive its next needed call is not step 1's Send. A follower must
// not skip that Send, which carries its report; skipping it would emit
// a message TestGraphToStarSkipSoundness catches.
func TestGraphToStarLeaderSkipsReportSend(t *testing.T) {
	t.Parallel()
	fresh := core.NewGraphToStarFactory()(7, sim.Env{N: 2}).(*core.GraphToStar)
	if got := fresh.NextCall(3); got != 7 {
		t.Fatalf("a fresh leader after round 1's Receive (position 3): next call %d, want 7 (round 3's Receive)", got)
	}
}
