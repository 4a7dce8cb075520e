package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"

	"mobiletraffic/internal/campaign"
	"mobiletraffic/internal/core"
	"mobiletraffic/internal/experiments"
)

// characterizeJob is the cmd/characterize campaign: NewEnvSharded into
// a fresh checkpoint directory (wall_s), then NewEnvSharded with
// Resume on the same directory (resume_s), which reads every shard
// back instead of simulating it.
type characterizeJob struct {
	o      runOptions
	cfg    experiments.Config
	shards int

	env                    *experiments.Env
	freshRep, resumedRep   *campaign.Report
	freshJSON, resumedJSON []byte
}

func newCharacterize(o runOptions) *characterizeJob {
	return &characterizeJob{
		o:      o,
		cfg:    envConfig(o.Scale.CampaignBS, o.Scale.CampaignDays, o.Seed),
		shards: o.Scale.Shards,
	}
}

// setup has nothing to prepare beyond the process itself: the campaign
// call builds its own inputs, so setup_s is the process start-up.
func (c *characterizeJob) setup() error { return nil }

func (c *characterizeJob) cleanup() {}

func (c *characterizeJob) iterate(it *iteration) error {
	dir, err := os.MkdirTemp(c.o.WorkDir, "characterize-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c.env = nil
	ctx := context.Background()
	var env *experiments.Env
	err = measureCall(it, func() (err error) {
		env, c.freshRep, err = experiments.NewEnvSharded(ctx, c.cfg, campaignOptions(c.shards, dir, false))
		return err
	})
	if err != nil {
		return err
	}
	if c.freshJSON, err = modelsJSON(env); err != nil {
		return err
	}
	env.Coll = nil // the checks read the models only
	c.env = env

	var resumed *core.ModelSet // only the models outlive a resume
	it.Resume, err = fastestTime(resumeReps, func() error {
		env, rep, err := experiments.NewEnvSharded(ctx, c.cfg, campaignOptions(c.shards, dir, true))
		if err != nil {
			return err
		}
		resumed, c.resumedRep = env.Models, rep
		return nil
	})
	if err != nil {
		return err
	}
	c.resumedJSON, err = resumed.ToJSON()
	return err
}

func (c *characterizeJob) check() []check {
	return checkCharacterize(c.env, c.freshRep, c.resumedRep, c.freshJSON, c.resumedJSON)
}

type characterizeRecord struct {
	ModelsSHA256 string             `json:"models_sha256"`
	Services     int                `json:"services"`
	Beta         map[string]float64 `json:"beta"`
}

func (c *characterizeJob) record() any {
	sum := sha256.Sum256(c.freshJSON)
	r := characterizeRecord{
		ModelsSHA256: hex.EncodeToString(sum[:]),
		Services:     len(c.env.Models.Services),
		Beta:         map[string]float64{},
	}
	for _, m := range c.env.Models.Services {
		r.Beta[m.Name] = m.Duration.Beta
	}
	return r
}

func (c *characterizeJob) traced(tr *tracer) (float64, error) {
	dir, err := os.MkdirTemp(c.o.WorkDir, "characterize-trace-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	ct, err := tracedCampaignPair(tr, "bench.characterize", c.cfg, c.shards, dir)
	if err != nil {
		return 0, err
	}
	if string(ct.freshJSON) != string(c.freshJSON) {
		tr.add("trace.replica_divergence", 1)
	}
	return ct.freshWall, nil
}
