package crash

import (
	"path/filepath"
	"testing"
)

// The in-process tests cover the harness's own happy path: a clean
// multi-writer workload must verify against the oracle under every
// configuration the matrix uses (plain, checkpointing, unbind policy).
// The actual crash rounds live in the root crashmatrix_test.go, which
// needs a subprocess.

func runClean(t *testing.T, cfg Config) {
	t.Helper()
	base := t.TempDir()
	cfg.Dir = filepath.Join(base, "db")
	cfg.AckDir = filepath.Join(base, "ack")
	if err := RunWorkload(cfg); err != nil {
		t.Fatalf("workload (seed=%d): %v", cfg.Seed, err)
	}
	if err := Verify(cfg.Dir, cfg.AckDir, VerifyOptions{
		AckCheck: cfg.CheckpointEvery == 0,
		Unbind:   cfg.Unbind,
	}); err != nil {
		t.Fatalf("verify (seed=%d): %v", cfg.Seed, err)
	}
}

func TestWorkloadVerifyClean(t *testing.T) {
	runClean(t, Config{Seed: 1, Writers: 4, Ops: 300})
}

func TestWorkloadVerifySingleWriter(t *testing.T) {
	runClean(t, Config{Seed: 2, Writers: 1, Ops: 500})
}

func TestWorkloadVerifyCheckpoint(t *testing.T) {
	runClean(t, Config{Seed: 3, Writers: 4, Ops: 300, CheckpointEvery: 25})
}

func TestWorkloadVerifyUnbind(t *testing.T) {
	runClean(t, Config{Seed: 4, Writers: 4, Ops: 300, Unbind: true})
}

// TestWorkloadLongReaderSeeds runs the in-process workload with a long
// snapshot reader across many seeds, alternating the delete policy. The
// reader walks the component closure of everything visible at its pin
// while writers create subobjects, so a pin that saw a member created
// after it (a class whose first history version had not been published
// yet) fails with "no such object".
func TestWorkloadLongReaderSeeds(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 1; seed <= seeds; seed++ {
		runClean(t, Config{Seed: int64(seed), Writers: 4, Ops: 400, LongReaders: 1, Unbind: seed%2 == 0})
	}
}
