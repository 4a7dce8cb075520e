package core

import (
	"fmt"
	"math/rand"
	"sort"
)

// generatorV1 is the retired v1 generation engine, kept as the test
// oracle the v2 stream is compared against: one math/rand stream per
// generator, a binary search over the cumulative session shares for
// the service pick, and the exported math/rand samplers of the model
// types (ArrivalModel.SampleCount, ServiceModel.Generate). It is pinned
// byte for byte by TestGenV1GoldenStream and is the reference of the
// KS/chi-square suite TestGenV2StatEquivalence.
type generatorV1 struct {
	set *ModelSet
	rng *rand.Rand
	cum []float64
}

// newGeneratorV1 builds the oracle with the share normalization of the
// historical Generator (the same share/total divisions), so its
// cumulative table is bit-identical to the one the digests pin.
func newGeneratorV1(set *ModelSet, seed int64) *generatorV1 {
	var total float64
	for i := range set.Services {
		total += set.Services[i].SessionShare
	}
	g := &generatorV1{set: set, rng: rand.New(rand.NewSource(seed)), cum: make([]float64, len(set.Services))}
	var acc float64
	for i := range set.Services {
		acc += set.Services[i].SessionShare / total
		g.cum[i] = acc
	}
	return g
}

func (g *generatorV1) pickService() int {
	i := sort.SearchFloat64s(g.cum, g.rng.Float64())
	if i >= len(g.cum) {
		i = len(g.cum) - 1
	}
	return i
}

func (g *generatorV1) Minute(class int, peak bool) ([]GenSession, error) {
	return g.MinuteAppend(nil, class, peak)
}

func (g *generatorV1) MinuteAppend(dst []GenSession, class int, peak bool) ([]GenSession, error) {
	n := g.set.Arrivals[class].SampleCount(peak, g.rng)
	for k := 0; k < n; k++ {
		dst = append(dst, g.set.Services[g.pickService()].Generate(g.rng))
	}
	return dst, nil
}

func (g *generatorV1) Session(name string) (GenSession, error) {
	for i := range g.set.Services {
		if g.set.Services[i].Name == name {
			return g.set.Services[i].Generate(g.rng), nil
		}
	}
	return GenSession{}, fmt.Errorf("no service %q", name)
}
