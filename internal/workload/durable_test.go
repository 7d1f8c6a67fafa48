package workload

import (
	"context"
	"testing"

	"nlexplain/internal/engine"
)

// TestDurableMixSurvivesRestart drives the durable (churn-heavy) mix
// at an engine backed by a real data directory, closes it cleanly,
// reopens the directory, and cross-checks generations across the
// restart: every corpus table must come back with the identical
// content-hash version and generation, and post-restart mutations
// must continue strictly past everything recovered.
func TestDurableMixSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *InProc {
		e, err := engine.Open(engine.Options{
			Workers: 4,
			DataDir: dir,
			// Checkpoints only on Close: restart replays a real WAL tail.
			CheckpointInterval: -1,
			CheckpointBytes:    -1,
		})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return NewInProc(e)
	}

	mix, ok := MixByName("durable")
	if !ok {
		t.Fatal("durable mix not registered")
	}
	corpus, ops := Generate(1, mix, 64)
	p := open()
	if err := p.RegisterTables(corpus.Tables); err != nil {
		t.Fatalf("RegisterTables: %v", err)
	}
	rep, err := Run(context.Background(), p, corpus, ops, Options{
		Workers: 4,
		MaxOps:  120,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := rep.Counts[string(ClassInternal)]; n != 0 {
		t.Fatalf("%d internal errors in the durable mix (generation/version cross-checks failed)", n)
	}
	if n := rep.Counts[string(ClassTransport)]; n != 0 {
		t.Fatalf("%d transport errors in an in-process run", n)
	}
	before := p.Engine.TableDetails()
	if len(before) == 0 {
		t.Fatal("no tables registered after the run")
	}
	beforeGen := counter(t, p.Engine, "store.generation")
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2 := open()
	defer p2.Close()
	after := p2.Engine.TableDetails()
	if len(after) != len(before) {
		t.Fatalf("recovered %d tables, want %d", len(after), len(before))
	}
	for i, b := range before {
		a := after[i]
		if a.Name != b.Name || a.Version != b.Version || a.Generation != b.Generation || a.Rows != b.Rows {
			t.Fatalf("table %s recovered as (gen %d, version %s, %d rows), want (gen %d, version %s, %d rows)",
				b.Name, a.Generation, a.Version, a.Rows, b.Generation, b.Version, b.Rows)
		}
	}
	if g := counter(t, p2.Engine, "store.generation"); g < beforeGen {
		t.Fatalf("recovered store generation %d below pre-restart %d", g, beforeGen)
	}
	info, err := p2.Engine.RegisterRaw("post_restart", []string{"A", "B"}, [][]string{{"1", "2"}})
	if err != nil {
		t.Fatalf("post-restart register: %v", err)
	}
	if info.Generation <= beforeGen {
		t.Fatalf("post-restart generation %d not past recovered %d", info.Generation, beforeGen)
	}
}
