package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"btr"
)

// TestCanceledRunLeavesNoArtifact pins brexp's interrupt path through
// the experiment loop: artifacts finished before the cancel stay, and
// once the group is canceled the ablation being written is removed and
// the loop stops with a "canceled" error.
func TestCanceledRunLeavesNoArtifact(t *testing.T) {
	pool := btr.NewScheduler(2)
	defer pool.Close()
	ctx := btr.NewExperimentContext(btr.SimConfig{Scale: 0.01, Sched: pool})
	group := pool.NewGroup()
	if suite := ctx.SuiteGroup(group); len(suite.Dropped) > 0 {
		t.Fatalf("suite dropped inputs: %v", suite.Dropped)
	}
	dir := t.TempDir()
	if err := writeArtifacts(ctx, group, []string{"T1"}, dir, false); err != nil {
		t.Fatalf("T1: %v", err)
	}

	group.Cancel()
	err := writeArtifacts(ctx, group, []string{"A1", "A2"}, dir, false)
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("canceled run returned %v, want a canceled error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "T1.txt" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("artifacts after cancel: %v, want only T1.txt", names)
	}
	if fi, err := os.Stat(filepath.Join(dir, "T1.txt")); err != nil || fi.Size() == 0 {
		t.Fatalf("T1.txt written before the cancel is missing or empty: %v", err)
	}
}
