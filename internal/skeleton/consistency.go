package skeleton

import (
	"fmt"
	"sort"

	"perfskel/internal/mpi"
	"perfskel/internal/signature"
	"perfskel/internal/trace"
)

// Consistent reports whether the skeleton's per-rank programs describe a
// mutually consistent communication pattern once loops are expanded:
// every rank performs the same sequence of collective operation kinds and
// roots (sizes may differ — the runtime still matches them — but counts
// and order must align or the ranks desynchronise), and for every
// (source, destination, tag) triple the sends match the receives. An
// inconsistent skeleton deadlocks when executed; Build can produce one
// when the similarity threshold made corresponding events cluster — and
// therefore fold — differently across ranks.
//
// Receives with wildcard source or tag cannot be matched statically; if
// any are present only the collective check is performed.
func (p *Program) Consistent() error {
	type collOp struct {
		kind mpi.Op
		root int
	}
	type p2pKey struct {
		src, dst, tag int
	}
	collSeqs := make([][]collOp, p.NRanks)
	sends := make(map[p2pKey]int)
	recvs := make(map[p2pKey]int)
	wildcards := false

	for rank := range p.PerRank {
		var coll []collOp
		var walk func(seq []Node, mult int)
		walk = func(seq []Node, mult int) {
			for _, nd := range seq {
				switch x := nd.(type) {
				case LoopNode:
					before := len(coll)
					walk(x.Body, mult*x.Count)
					iter := append([]collOp(nil), coll[before:]...)
					for i := 1; i < x.Count; i++ {
						coll = append(coll, iter...)
					}
				case OpNode:
					op := x.Op
					switch {
					case op.Kind.IsCollective():
						root := op.Peer
						if !hasRoot(op.Kind) {
							root = mpi.None
						}
						coll = append(coll, collOp{kind: op.Kind, root: root})
					case op.Kind == mpi.OpSend || op.Kind == mpi.OpIsend:
						sends[p2pKey{src: rank, dst: op.Peer, tag: op.Tag}] += mult
					case op.Kind == mpi.OpRecv || op.Kind == mpi.OpIrecv:
						if op.Peer == mpi.AnySource || op.Tag == mpi.AnyTag {
							wildcards = true
						} else {
							recvs[p2pKey{src: op.Peer, dst: rank, tag: op.Tag}] += mult
						}
					case op.Kind == mpi.OpSendrecv:
						sends[p2pKey{src: rank, dst: op.Peer, tag: op.Tag}] += mult
						recvs[p2pKey{src: op.Peer2, dst: rank, tag: op.Tag}] += mult
					}
				}
			}
		}
		walk(p.PerRank[rank], 1)
		collSeqs[rank] = coll
	}

	for r := 1; r < p.NRanks; r++ {
		if len(collSeqs[r]) != len(collSeqs[0]) {
			return fmt.Errorf("skeleton: rank %d performs %d collective calls, rank 0 %d",
				r, len(collSeqs[r]), len(collSeqs[0]))
		}
		for i := range collSeqs[0] {
			if collSeqs[r][i] != collSeqs[0][i] {
				return fmt.Errorf("skeleton: collective call %d differs: rank 0 %v(root=%d), rank %d %v(root=%d)",
					i, collSeqs[0][i].kind, collSeqs[0][i].root, r, collSeqs[r][i].kind, collSeqs[r][i].root)
			}
		}
	}
	if wildcards {
		return nil
	}
	// Check mismatches in sorted key order so the reported error is the
	// same on every run (map iteration order would pick an arbitrary
	// one).
	keys := make([]p2pKey, 0, len(sends)+len(recvs))
	for k := range sends {
		keys = append(keys, k)
	}
	for k := range recvs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.tag < b.tag
	})
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		if ns, nr := sends[k], recvs[k]; ns != nr {
			if ns > 0 {
				return fmt.Errorf("skeleton: %d sends %d->%d tag %d but %d receives", ns, k.src, k.dst, k.tag, nr)
			}
			return fmt.Errorf("skeleton: %d receives %d->%d tag %d but %d sends", nr, k.src, k.dst, k.tag, ns)
		}
	}
	return nil
}

// hasRoot reports whether the collective's Peer field is a root rank.
func hasRoot(op mpi.Op) bool {
	switch op {
	case mpi.OpBcast, mpi.OpReduce, mpi.OpGather, mpi.OpScatter:
		return true
	}
	return false
}

// BuildFromTrace runs the complete signature-plus-skeleton construction
// for scaling factor K: the similarity threshold is raised (geometric
// steps, as signature.Build) until the compression ratio reaches Q = K/2
// AND the resulting skeleton is consistent across ranks. This is the
// entry point the experiment drivers and tools use; signature.Build alone
// cannot see scaling-induced inconsistencies.
//
// If no threshold yields both, the best consistent skeleton is returned
// (TargetMet false on its signature); if no threshold yields a consistent
// skeleton at all, an error describing the inconsistency is returned.
func BuildFromTrace(tr *trace.Trace, k int, opts Options) (*Program, *signature.Signature, error) {
	if err := CheckK(k); err != nil {
		return nil, nil, err
	}
	target := float64(k) / 2
	var bestP *Program
	var bestS *signature.Signature
	var lastErr error
	t, step := 0.0, 0.005
	for {
		sig, err := signature.Build(tr, signature.Options{InitialThreshold: t})
		if err != nil {
			return nil, nil, err
		}
		prog, err := BuildOpts(sig, k, opts)
		if err != nil {
			return nil, nil, err
		}
		if cerr := prog.Consistent(); cerr == nil {
			if sig.Ratio >= target {
				sig.TargetMet = true
				return prog, sig, nil
			}
			if bestS == nil || sig.Ratio > bestS.Ratio {
				bestP, bestS = prog, sig
			}
		} else {
			lastErr = cerr
		}
		if t >= 1.0 {
			break
		}
		t += step
		step *= 1.3
		if t > 1.0 {
			t = 1.0
		}
	}
	if bestP != nil {
		return bestP, bestS, nil
	}
	return nil, nil, fmt.Errorf("skeleton: no similarity threshold yields a consistent skeleton (K=%d): %w", k, lastErr)
}
