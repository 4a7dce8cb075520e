package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mobiletraffic/internal/campaign"
	"mobiletraffic/internal/core"
	"mobiletraffic/internal/experiments"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
	"mobiletraffic/internal/probe"
)

// envConfig is the measurement campaign every workload characterizes.
// MoveProb is set explicitly (to the program's default) so the traced
// replica builds its simulator from exactly the driver's inputs.
func envConfig(bs, days int, seed int64) experiments.Config {
	return experiments.Config{NumBS: bs, Days: days, Seed: seed, MoveProb: 0.25}
}

// campaignOptions shards the campaign over every CPU.
func campaignOptions(shards int, dir string, resume bool) experiments.CampaignOptions {
	return experiments.CampaignOptions{Shards: shards, Workers: nproc(), CheckpointDir: dir, Resume: resume}
}

// modelsJSON is the released form of a ModelSet: what resume and
// restore must reproduce byte for byte.
func modelsJSON(env *experiments.Env) ([]byte, error) {
	b, err := env.Models.ToJSON()
	if err != nil {
		return nil, fmt.Errorf("models JSON: %w", err)
	}
	return b, nil
}

// envSetup is the set-up of the slicing and vran workloads: the
// cmd/experiments environment, NewEnv. Each iteration also restores
// the environment from the checkpoints of a sharded campaign of the
// same configuration (resume_s) and compares the restored models with
// NewEnv's.
type envSetup struct {
	cfg      experiments.Config
	shards   int
	workDir  string
	env      *experiments.Env
	envJSON  []byte
	dir      string
	restored []byte // models JSON of the last restore
}

func (s *envSetup) setup() error {
	s.env = nil
	env, err := experiments.NewEnv(s.cfg)
	if err != nil {
		return err
	}
	if s.envJSON, err = modelsJSON(env); err != nil {
		return err
	}
	s.env = env
	return nil
}

// restore rebuilds the environment from checkpoints resumeReps times
// and returns the fastest restore's time. The first call writes the
// checkpoints, untimed.
func (s *envSetup) restore() (float64, error) {
	ctx := context.Background()
	if s.dir == "" {
		dir, err := os.MkdirTemp(s.workDir, "env-ckpt-*")
		if err != nil {
			return 0, err
		}
		s.dir = dir
		if _, _, err := experiments.NewEnvSharded(ctx, s.cfg, campaignOptions(s.shards, dir, false)); err != nil {
			return 0, err
		}
	}
	var models *core.ModelSet // only the models outlive a restore
	elapsed, err := fastestTime(resumeReps, func() error {
		env, _, err := experiments.NewEnvSharded(ctx, s.cfg, campaignOptions(s.shards, s.dir, true))
		if err != nil {
			return err
		}
		models = env.Models
		return nil
	})
	if err != nil {
		return 0, err
	}
	s.restored, err = models.ToJSON()
	return elapsed, err
}

func (s *envSetup) restoreCheck() check {
	return check{Name: "checkpoint-restored models equal NewEnv models", OK: bytes.Equal(s.restored, s.envJSON)}
}

func (s *envSetup) cleanup() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// campaignTrace is what one traced campaign pair produced.
type campaignTrace struct {
	freshJSON []byte           // models of the fresh pass
	freshWall float64          // wall time of the fresh pass
	resumed   *experiments.Env // environment of the resume pass
}

// tracedCampaignPair replays NewEnvSharded into dir under rootName,
// then its resume under bench.resume, then a probe-codec replica
// (bench.probe_replica): every checkpoint the campaign wrote is read
// back, written again and merged, so checkpoint read, write and merge
// get their own spans. campaign.Run does all three internally, where
// the benchmark cannot put a span.
func tracedCampaignPair(tr *tracer, rootName string, cfg experiments.Config, shards int, dir string) (*campaignTrace, error) {
	out := &campaignTrace{}
	root := tr.reg.StartSpan(rootName)
	t0 := time.Now()
	fresh, err := tracedCampaign(tr, root, cfg, shards, dir, false)
	out.freshWall = time.Since(t0).Seconds()
	root.End()
	if err != nil {
		return nil, err
	}
	if out.freshJSON, err = modelsJSON(fresh); err != nil {
		return nil, err
	}

	root = tr.reg.StartSpan("bench.resume")
	out.resumed, err = tracedCampaign(tr, root, cfg, shards, dir, true)
	root.End()
	if err != nil {
		return nil, err
	}

	root = tr.reg.StartSpan("bench.probe_replica")
	defer root.End()
	return out, probeReplica(tr, root, dir, out.resumed.Coll)
}

// tracedCampaign composes NewEnvSharded from public calls: topology
// and simulator, campaign.Run over a shard function that replicates
// CollectSharded's (SampleDayColumns then ObserveColumns per BS-day
// into a full-extent collector), then the two fits.
func tracedCampaign(tr *tracer, parent *obs.Span, cfg experiments.Config, shards int, dir string, resume bool) (*experiments.Env, error) {
	var (
		topo *netsim.Topology
		sim  *netsim.Simulator
		err  error
	)
	timed(parent, "netsim.setup", func() {
		if topo, err = netsim.NewTopology(netsim.TopologyConfig{NumBS: cfg.NumBS, Seed: cfg.Seed}); err != nil {
			return
		}
		sim, err = netsim.NewSimulator(topo, netsim.SimConfig{Days: cfg.Days, Seed: cfg.Seed, MoveProb: cfg.MoveProb, Sampler: cfg.Sampler})
	})
	if err != nil {
		return nil, err
	}
	numBS, workers := len(topo.BSs), nproc()
	run := parent.Child("campaign.run", "workers", strconv.Itoa(min(workers, shards)))
	free := tracks(workers)
	fn := func(ctx context.Context, sh campaign.Shard, attempt int) (*probe.Collector, error) {
		tid := <-free
		defer func() { free <- tid }()
		sp := run.Child("campaign.shard", "shard", strconv.Itoa(sh.Index))
		sp.SetTID(tid)
		defer sp.End()
		tr.add("campaign.shard_attempts", 1)
		var coll *probe.Collector
		var err error
		timed(sp, "probe.alloc", func() { coll, err = probe.NewCollectorSized(len(sim.Services), numBS, cfg.Days) })
		if err != nil {
			return nil, err
		}
		var cols netsim.DayColumns
		timed(sp, "netsim.alloc", func() {
			cols.SkipStart = true
			cols.Resize(sim.MaxDaySessions())
			cols.Resize(0)
		})
		for bs := sh.StartBS; bs < sh.EndBS; bs++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for day := 0; day < cfg.Days; day++ {
				timed(sp, "netsim.sample", func() { err = sim.SampleDayColumns(bs, day, &cols) })
				if err != nil {
					return nil, err
				}
				timed(sp, "probe.observe", func() { err = coll.ObserveColumns(bs, day, &cols) })
				if err != nil {
					return nil, err
				}
				n := float64(cols.N())
				tr.add("netsim.sample_sessions", n)
				tr.add("probe.observe_sessions", n)
			}
			campaign.Heartbeat(ctx)
		}
		return coll, nil
	}
	coll, rep, err := campaign.Run(context.Background(), campaign.Config{
		NumBS:         numBS,
		Shards:        shards,
		Workers:       workers,
		CheckpointDir: dir,
		Resume:        resume,
		Seed:          cfg.Seed,
		ConfigTag:     fmt.Sprintf("benchmark replica bs=%d days=%d seed=%d", cfg.NumBS, cfg.Days, cfg.Seed),
	}, fn)
	run.End()
	if err != nil {
		return nil, err
	}
	tr.add("campaign.shard_retries", float64(rep.Retries))
	tr.add("campaign.shard_failures", float64(rep.Failed))

	var (
		models         *core.ModelSet
		arrivals       []*core.ArrivalModel
		fitRep, arrRep *core.FitReport
	)
	timed(parent, "core.fit_services", func() { models, fitRep, err = core.FitServiceModelsReport(coll, sim.Services, nil) })
	if err != nil {
		return nil, err
	}
	timed(parent, "core.fit_arrivals", func() { arrivals, arrRep, err = core.FitArrivalsByDecileReport(coll, topo) })
	if err != nil {
		return nil, err
	}
	tr.add("core.fit_fallbacks", float64(len(fitRep.Fallbacks)+len(arrRep.Fallbacks)))
	models.Arrivals = arrivals
	return &experiments.Env{
		Config: cfg, Topo: topo, Sim: sim, Coll: coll,
		Models: models, Arrivals: arrivals, Catalog: sim.Services,
	}, nil
}

// probeReplica reads back every checkpoint listed in dir's manifest,
// writes it again beside the original and folds it into a fresh
// collector one shard at a time, then compares the fold with want, the
// campaign's own merge. A mismatch counts as replica divergence.
func probeReplica(tr *tracer, parent *obs.Span, dir string, want *probe.Collector) error {
	man, err := campaign.LoadManifest(dir)
	if err != nil {
		return err
	}
	if man == nil {
		return fmt.Errorf("no campaign manifest in %s", dir)
	}
	var dest *probe.Collector
	for _, ms := range man.Shards {
		if ms.Checkpoint == "" {
			continue
		}
		path := filepath.Join(dir, ms.Checkpoint)
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		tr.add("probe.checkpoint_bytes", float64(st.Size()))
		var coll *probe.Collector
		timed(parent, "probe.checkpoint_read", func() { coll, err = probe.ReadCheckpointFile(path) })
		if err != nil {
			return err
		}
		timed(parent, "probe.checkpoint_write", func() { err = coll.WriteCheckpointFile(path + ".replica") })
		if err != nil {
			return err
		}
		timed(parent, "probe.merge", func() {
			if dest == nil {
				if dest, err = probe.NewCollectorGrids(coll.NumServices, 0, 0, coll.VolumeEdges, coll.DurationEdges); err != nil {
					return
				}
			}
			_, err = dest.MergeAllReport([]*probe.Collector{coll}, nproc())
		})
		if err != nil {
			return err
		}
	}
	if dest == nil || dest.TotalSessions() != want.TotalSessions() {
		tr.add("trace.replica_divergence", 1)
	}
	return nil
}
