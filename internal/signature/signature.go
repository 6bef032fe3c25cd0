package signature

import (
	"errors"
	"fmt"
	"strings"

	"perfskel/internal/trace"
)

// ErrEmptyTrace reports a trace with no events: there is nothing to
// compress into a signature. Callers branch on it with errors.Is (the
// prediction service maps it to a 400).
var ErrEmptyTrace = errors.New("signature: empty trace")

// Options controls signature construction.
type Options struct {
	// TargetRatio is the desired compression ratio Q between trace length
	// and signature length. The similarity threshold is raised from
	// InitialThreshold in Step increments until the ratio is reached
	// (paper: Q = K/2 where K is the skeleton scaling factor). Zero means
	// "no target": a single pass at InitialThreshold.
	TargetRatio float64
	// InitialThreshold is the starting similarity threshold (default 0:
	// only effectively identical events cluster).
	InitialThreshold float64
	// Step is the initial threshold increment of the iterative search
	// (default 0.005). Each iteration the increment grows by Growth, so
	// the search is fine-grained at the low thresholds that matter and
	// still bounded (~17 passes) when the target is unreachable.
	Step float64
	// Growth is the multiplicative step growth per iteration (default
	// 1.3; 1.0 gives the fixed-step search).
	Growth float64
	// MaxThreshold caps the search (default 1.0). The paper observes that
	// NAS benchmarks never needed more than 0.20.
	MaxThreshold float64
	// MaxBody bounds the loop-body window of the folder (default
	// DefaultMaxBody).
	MaxBody int
}

func (o Options) withDefaults() Options {
	if o.Step == 0 {
		o.Step = 0.005
	}
	if o.Growth == 0 {
		o.Growth = 1.3
	}
	if o.MaxThreshold == 0 {
		o.MaxThreshold = 1.0
	}
	if o.MaxBody == 0 {
		o.MaxBody = DefaultMaxBody
	}
	return o
}

// Signature is a compressed execution signature: per-rank loop-structured
// event sequences over a shared cluster table.
type Signature struct {
	NRanks      int
	AppTime     float64 // the traced run's parallel execution time
	TraceEvents int     // length of the original trace
	PerRank     [][]Node
	Clusters    []*Cluster
	Threshold   float64 // similarity threshold actually used
	Ratio       float64 // achieved compression ratio
	TargetMet   bool    // whether TargetRatio was reached
}

// Len returns the signature length (total leaves across ranks, loop
// bodies counted once).
func (s *Signature) Len() int {
	n := 0
	for _, seq := range s.PerRank {
		n += seqLeaves(seq)
	}
	return n
}

// RankTime returns the wall time represented by rank r's sequence.
func (s *Signature) RankTime(r int) float64 { return seqTime(s.PerRank[r]) }

func (s *Signature) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "signature: %d ranks, %d events -> %d leaves (ratio %.1f, threshold %.3f)\n",
		s.NRanks, s.TraceEvents, s.Len(), s.Ratio, s.Threshold)
	for r, seq := range s.PerRank {
		fmt.Fprintf(&b, "rank %d:", r)
		for _, n := range seq {
			fmt.Fprintf(&b, " %s", n)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Build compresses a trace into an execution signature. If
// opts.TargetRatio is set, the similarity threshold is raised iteratively
// until the achieved compression ratio reaches it (or MaxThreshold is
// hit, in which case TargetMet is false and the best signature found is
// returned).
func Build(tr *trace.Trace, opts Options) (*Signature, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, ErrEmptyTrace
	}
	opts = opts.withDefaults()
	if opts.InitialThreshold < 0 || opts.InitialThreshold > opts.MaxThreshold {
		return nil, fmt.Errorf("signature: initial threshold %v out of [0, %v]",
			opts.InitialThreshold, opts.MaxThreshold)
	}

	build := func(threshold float64) *Signature {
		perRankClusters, clusters := clusterTrace(tr, threshold)
		s := &Signature{
			NRanks:      tr.NRanks,
			AppTime:     tr.AppTime,
			TraceEvents: tr.Len(),
			Clusters:    clusters,
			Threshold:   threshold,
		}
		for _, seq := range perRankClusters {
			s.PerRank = append(s.PerRank, compress(seq, opts.MaxBody))
		}
		s.Ratio = float64(s.TraceEvents) / float64(s.Len())
		return s
	}

	t := opts.InitialThreshold
	var best, bestConsistent *Signature
	for {
		s := build(t)
		if opts.TargetRatio <= 0 {
			s.TargetMet = true
			return s, nil
		}
		consistent := s.Consistent() == nil
		if best == nil || s.Ratio > best.Ratio {
			best = s
		}
		if consistent && (bestConsistent == nil || s.Ratio > bestConsistent.Ratio) {
			bestConsistent = s
		}
		// Inconsistent thresholds (a cluster of jittered events split
		// differently across ranks) would yield deadlocking skeletons;
		// keep raising the threshold past them.
		if consistent && s.Ratio >= opts.TargetRatio {
			s.TargetMet = true
			return s, nil
		}
		if t >= opts.MaxThreshold {
			if bestConsistent != nil {
				return bestConsistent, nil
			}
			return best, nil
		}
		t += opts.Step
		opts.Step *= opts.Growth
		if t > opts.MaxThreshold {
			t = opts.MaxThreshold
		}
	}
}
