package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobiletraffic/internal/campaign"
	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/probe"
)

// TestShardedBitIdentity is the acceptance gate of the sharded runner:
// for shard counts 1, 4 and 7 the fitted ModelSet JSON must be
// byte-identical to the in-process NewEnv pipeline.
func TestShardedBitIdentity(t *testing.T) {
	cfg := Config{NumBS: 11, Days: 2, Seed: 11}
	ref, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.Models.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4, 7} {
		env, report, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{Shards: shards})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if report.Degraded() || report.Completed != shards {
			t.Fatalf("%d shards: report %+v", shards, report)
		}
		got, err := env.Models.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refJSON, got) {
			t.Fatalf("%d shards: ModelSet JSON differs from the in-process reference", shards)
		}
	}
}

// TestShardedWithDataFaults verifies the sharded runner composes with
// the data-plane fault injector identically to the in-process path:
// fault streams are per-(BS, day), so sharding must not change the
// realization.
func TestShardedWithDataFaults(t *testing.T) {
	cfg := Config{NumBS: 10, Days: 1, Seed: 13}
	fcfg := faults.Config{OutageProb: 0.2, FlowLossProb: 0.1, Seed: 5}

	numServices := catalogSize(t, cfg.Seed)
	env := func(shards int) []byte {
		t.Helper()
		inj, err := faults.New(fcfg, numServices)
		if err != nil {
			t.Fatal(err)
		}
		e, rep, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{Shards: shards, Faults: inj})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if rep.Degraded() {
			t.Fatalf("%d shards: degraded report %+v", shards, rep)
		}
		j, err := e.Models.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := env(1), env(3)
	if !bytes.Equal(a, b) {
		t.Fatal("fault-injected campaign differs across shard counts")
	}
}

// TestShardedFaultyWorkersBitIdentical pins the columnar collect plane
// under concurrent shard workers with faults enabled: for worker
// counts 1, 4 and 7 over a fixed shard layout, the fitted ModelSet
// JSON must be byte-identical. Per-(BS, day) substreams and fault
// streams are derived, not sequenced, so scheduling must not matter;
// the CI race job runs this under -race, where any sharing between
// the per-worker DayColumns scratches, fault day-streams or partial
// collectors surfaces as a data race.
func TestShardedFaultyWorkersBitIdentical(t *testing.T) {
	cfg := Config{NumBS: 14, Days: 1, Seed: 21}
	fcfg := faults.Config{
		OutageProb: 0.15, TruncatedDayProb: 0.1, FlowLossProb: 0.05,
		FlowDupProb: 0.02, SignalGapProb: 0.03, MisclassProb: 0.02, Seed: 9,
	}
	numServices := catalogSize(t, cfg.Seed)
	env := func(workers int) []byte {
		t.Helper()
		inj, err := faults.New(fcfg, numServices)
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{
			Shards: 7, Workers: workers, Faults: inj,
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		j, err := e.Models.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	one := env(1)
	for _, w := range []int{4, 7} {
		if !bytes.Equal(one, env(w)) {
			t.Fatalf("fault-injected campaign differs between 1 and %d workers", w)
		}
	}
}

// catalogSize builds a minimal environment just to learn the service
// catalog size (the fault injector needs the count up front).
func catalogSize(t *testing.T, seed int64) int {
	t.Helper()
	e, err := NewEnv(Config{NumBS: 10, Days: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return len(e.Catalog)
}

// TestShardedResumeRejectsOtherConfig verifies the manifest config hash
// covers the experiment parameters: a checkpoint directory written
// under one seed refuses to resume under another.
func TestShardedResumeRejectsOtherConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NumBS: 10, Days: 1, Seed: 3}
	if _, _, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{Shards: 2, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 4
	_, _, err := NewEnvSharded(context.Background(), other, CampaignOptions{Shards: 2, CheckpointDir: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different campaign config") {
		t.Fatalf("seed change: err = %v", err)
	}
}

// TestExpKillResume runs the full chaos experiment at small scale: all
// three phases (crash-retry, kill/resume, retry exhaustion) across a
// couple of shard counts, asserting the determinism columns.
func TestExpKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	env, err := NewEnv(Config{NumBS: 11, Days: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r, err := ExpKillResume(env, KillResumeConfig{ShardCounts: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.CrashIdentical {
			t.Errorf("%d shards: crash-retry fit differs from the reference", row.Shards)
		}
		if row.CrashRetries < 1 {
			t.Errorf("%d shards: crash phase recorded no retry", row.Shards)
		}
		if !row.ResumeIdentical {
			t.Errorf("%d shards: resumed fit differs from the reference", row.Shards)
		}
		if row.Shards > 1 {
			if row.KilledShards < 1 || row.ResumedShards < 1 {
				t.Errorf("%d shards: kill/resume phase killed %d, resumed %d", row.Shards, row.KilledShards, row.ResumedShards)
			}
			if row.DegradedFailed != 1 || row.DegradedLostBS < 1 {
				t.Errorf("%d shards: degraded phase %+v", row.Shards, row)
			}
			if row.DegradedFitted < 1 {
				t.Errorf("%d shards: degraded campaign fitted no services", row.Shards)
			}
		}
	}
	if got := r.Table().Render(); !strings.Contains(got, "kill/resume") {
		t.Fatalf("table render missing title: %q", got)
	}
}

// TestCampaignInterruptPath verifies the cmd/characterize contract: a
// canceled campaign surfaces campaign.ErrInterrupted and leaves a
// resumable checkpoint directory behind.
func TestCampaignInterruptPath(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NumBS: 10, Days: 1, Seed: 19}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the "signal" arrives before any shard completes
	_, _, err := NewEnvSharded(ctx, cfg, CampaignOptions{Shards: 3, CheckpointDir: dir})
	if err == nil {
		t.Fatal("pre-canceled campaign must error")
	}
	// Nothing completed, so the merge has nothing; a live resume run
	// then computes everything and matches the reference.
	ref, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.Models.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	env, rep, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{Shards: 3, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 3 {
		t.Fatalf("resume-after-abort report %+v", rep)
	}
	got, err := env.Models.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, got) {
		t.Fatal("resume after aborted campaign differs from the reference")
	}
}

// encodeCheckpointV1 writes c in checkpoint format version 1, which
// stored minute counts as f64: the on-disk state a campaign that ran
// before the v2 format leaves behind.
func encodeCheckpointV1(t *testing.T, c *probe.Collector) []byte {
	t.Helper()
	var b bytes.Buffer
	put := func(v any) {
		if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	numBS, days := c.Extent()
	keys := c.Keys()
	b.WriteString("MTCP")
	put(uint16(1))
	put([]uint32{uint32(c.NumServices), uint32(numBS), uint32(days), netsim.MinutesPerDay,
		uint32(len(c.VolumeEdges)), uint32(len(c.DurationEdges))})
	put(uint64(len(keys)))
	put(c.VolumeEdges)
	put(c.DurationEdges)
	for _, k := range keys {
		st, _ := c.Get(k)
		put(uint64((k.Service*numBS+k.BS)*days + k.Day))
		put(st.Sessions)
		for _, n := range st.MinuteCounts {
			put(float64(n))
		}
		put(st.Volume.P)
		put(st.DurVolSum)
		put(st.DurCount)
	}
	put(crc32.Checksum(b.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	return b.Bytes()
}

// TestShardedResumeRecomputesV1Checkpoint verifies the checkpoint
// format bump is safe for a campaign interrupted under the old format:
// a resume over a version-1 shard checkpoint recomputes that shard
// only, and the fitted models stay byte-identical.
func TestShardedResumeRecomputesV1Checkpoint(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	cfg := Config{NumBS: 12, Days: 1, Seed: 23}
	env, _, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{Shards: shards, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := env.Models.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	man, err := campaign.LoadManifest(dir)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v", err)
	}
	path := filepath.Join(dir, man.Shards[2].Checkpoint)
	shard, err := probe.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, encodeCheckpointV1(t, shard), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := probe.ReadCheckpointFile(path); err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version 1") {
		t.Fatalf("v1 checkpoint: err = %v", err)
	}
	env, rep, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{Shards: shards, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != shards-1 || rep.Completed != 1 || rep.Degraded() {
		t.Fatalf("report %+v, want shard 2 recomputed and the rest resumed", rep)
	}
	got, err := env.Models.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, got) {
		t.Fatal("resume over a v1 checkpoint changed the fitted models")
	}
	// The recomputed shard was checkpointed again, in the current format.
	if _, err := probe.ReadCheckpointFile(path); err != nil {
		t.Fatalf("recomputed shard checkpoint: %v", err)
	}
}
