// Package staticsig synthesizes execution signatures from MPI program
// source without running the program — the trace-free front-end of the
// skeleton pipeline.
//
// The trace pipeline observes one (P, class) execution and compresses
// it; this package instead reads the program. Extract resolves an
// application's registered constructor (a `registry` map entry or a
// declared function) and captures it as a Parametric signature: the
// per-rank program body plus the class parameter tables it selects
// from, with the source content-hashed for cache addressing.
// Instantiate interprets the constructor for a concrete problem-size
// class — binding each parameter-table field to its constant — and
// symbolically executes the program body at a concrete rank count P
// through commgraph/symexec. The resulting automaton converts to a
// signature.Signature that flows through skeleton.Build, Canon and
// ScaledDiff unchanged.
//
// Two kinds of values survive only as placeholders rather than proofs:
// compute work containing mean-one perturbation factors (jitter) is a
// dominant-factor estimate (Op.WorkApprox), and message volumes the
// interpreter cannot resolve (per-pair Alltoallv sizes) stay unknown.
// Both are recorded on the Instance — placeholder compute clusters can
// be recalibrated from one short measured run (CalibrateToAppTime),
// and placeholder byte keys are excluded from byte cross-validation
// (Diff).
package staticsig

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/format"
	"go/types"
	"io"
	"os"
	"sort"
	"sync"

	"perfskel/internal/analysis"
	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/analysis/symexec"
	"perfskel/internal/signature"
)

// Parametric is an application captured from source: the constructor
// entry point plus the package context needed to instantiate it at any
// concrete (rank count, problem-size class).
type Parametric struct {
	// App is the registered application name the constructor was
	// resolved for.
	App string
	// SourceHash content-addresses the package source the signature was
	// extracted from; instances embed it in their cache keys.
	SourceHash string

	src    commgraph.Source
	info   *types.Info
	entry  ast.Node // *ast.FuncDecl or *ast.FuncLit constructor
	funcs  map[types.Object]*ast.FuncDecl
	tables map[types.Object]*ast.CompositeLit

	mu   sync.Mutex
	memo map[instKey]*Instance
}

type instKey struct {
	nranks int
	class  string
}

// Extract resolves the named application's constructor in a parsed,
// type-checked package and returns its parametric signature. The app
// is found through a package-level registry map literal (a constant
// string key naming a declared function or function literal) or, when
// no registry entry exists, a function declaration of the same name.
func Extract(src commgraph.Source, app string) (*Parametric, error) {
	if src.Info == nil || src.Fset == nil {
		return nil, fmt.Errorf("staticsig: source package is missing type information")
	}
	p := &Parametric{
		App:    app,
		src:    src,
		info:   src.Info,
		funcs:  map[types.Object]*ast.FuncDecl{},
		tables: map[types.Object]*ast.CompositeLit{},
		memo:   map[instKey]*Instance{},
	}
	for _, f := range src.Files {
		for _, d := range f.Decls {
			switch decl := d.(type) {
			case *ast.FuncDecl:
				if obj := src.Info.Defs[decl.Name]; obj != nil {
					p.funcs[obj] = decl
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i >= len(vs.Values) {
							break
						}
						lit, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit)
						if !ok {
							continue
						}
						if obj := src.Info.Defs[name]; obj != nil {
							p.tables[obj] = lit
						}
					}
				}
			}
		}
	}
	entry, err := p.findApp(app)
	if err != nil {
		return nil, err
	}
	p.entry = entry
	hash, err := hashSource(src)
	if err != nil {
		return nil, err
	}
	p.SourceHash = hash
	return p, nil
}

// FromSource is the whole trace-free front end: it loads the source
// package pkgPath — a directory, or an import path of the module
// containing the working directory — then extracts app's parametric
// signature and instantiates it at nranks ranks and problem class class.
// Each stage's failure names the stage.
func FromSource(pkgPath, app string, nranks int, class string) (*Instance, error) {
	root, isDir := ".", false
	if st, err := os.Stat(pkgPath); err == nil && st.IsDir() {
		root, isDir = pkgPath, true
	}
	loader, err := analysis.NewLoader(root)
	var pkg *analysis.Package
	if err == nil {
		if isDir {
			pkg, err = loader.LoadDir(pkgPath)
		} else {
			pkg, err = loader.Load(pkgPath)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("load %q: %w", pkgPath, err)
	}
	par, err := Extract(commgraph.Source{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}, app)
	if err != nil {
		return nil, fmt.Errorf("extract %q from %q: %w", app, pkgPath, err)
	}
	inst, err := par.Instantiate(nranks, class)
	if err != nil {
		return nil, fmt.Errorf("instantiate: %w", err)
	}
	return inst, nil
}

// hashSource content-addresses the package: a SHA-256 over the
// formatted rendering of every file, in file order. Formatting from
// the AST makes the hash independent of load path and byte-identical
// for byte-identical source.
func hashSource(src commgraph.Source) (string, error) {
	type file struct {
		name string
		f    *ast.File
	}
	files := make([]file, 0, len(src.Files))
	for _, f := range src.Files {
		files = append(files, file{src.Fset.Position(f.Pos()).Filename, f})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
	h := sha256.New()
	for _, ff := range files {
		io.WriteString(h, ff.name)
		h.Write([]byte{0})
		if err := format.Node(h, src.Fset, ff.f); err != nil {
			return "", fmt.Errorf("staticsig: hash source %s: %w", ff.name, err)
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// Instance is a parametric signature instantiated at a concrete rank
// count and problem-size class: an ordinary execution signature plus
// the record of what remains a placeholder.
type Instance struct {
	App    string
	Class  string
	NRanks int
	// Key content-addresses the instance: app, class, rank count and
	// source hash. Two runs over byte-identical source produce the same
	// key, so caches need no trace or topology input.
	Key string
	// SourceHash is the parametric signature's source hash.
	SourceHash string
	// Params renders the class parameter bindings ("outer=15", ...) in
	// table field order, for reports.
	Params []string
	// Sig is the synthesized execution signature. Compute durations are
	// the model's work values (dominant-factor estimates where jittered);
	// communication durations are crude dedicated-run estimates
	// (latency + bytes/bandwidth) that feed only coarse time accounting
	// (AppTime, MinGoodTime), never structure.
	Sig *signature.Signature
	// Placeholders lists what instantiation could estimate but not
	// prove, one note per distinct operation site.
	Placeholders []string
	// PlaceholderKeys marks the canonical communication keys
	// (signature.CanonKey) whose byte volumes are unresolved; byte
	// cross-validation skips them.
	PlaceholderKeys map[string]bool

	// computePlaceholders indexes the clusters whose Duration is a
	// calibratable compute estimate.
	computePlaceholders []int
}

// Instantiate interprets the constructor for the given class, extracts
// the per-rank automata at the given rank count, and converts them to
// an execution signature. Results are memoized per (nranks, class);
// callers share the returned instance.
func (p *Parametric) Instantiate(nranks int, class string) (*Instance, error) {
	if nranks < 1 {
		return nil, fmt.Errorf("staticsig: rank count must be >= 1, got %d", nranks)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := instKey{nranks, class}
	if inst, ok := p.memo[key]; ok {
		return inst, nil
	}
	ab, err := p.interpret(p.entry, nil, class, 0)
	if err != nil {
		return nil, fmt.Errorf("staticsig: %s class %s: %w", p.App, class, err)
	}
	prebind := func(env *symexec.Env) {
		for _, b := range ab.binds {
			if b.isFloat {
				env.BindFloat(b.obj, b.f)
			} else {
				env.Bind(b.obj, symexec.Const(b.n))
			}
		}
	}
	m := commgraph.ExtractFunc(p.src, p.App, ab.pos, ab.body, nranks, prebind)
	if len(m.Approx) > 0 {
		return nil, fmt.Errorf("staticsig: %s class %s on %d ranks: extraction is approximate:\n  %s",
			p.App, class, nranks, joinLines(m.Approx))
	}
	conv, err := convert(&m, p.src.Fset)
	if err != nil {
		return nil, fmt.Errorf("staticsig: %s class %s on %d ranks: %w", p.App, class, nranks, err)
	}
	if err := conv.sig.Consistent(); err != nil {
		return nil, fmt.Errorf("staticsig: %s class %s on %d ranks: synthesized signature inconsistent: %w",
			p.App, class, nranks, err)
	}
	inst := &Instance{
		App:                 p.App,
		Class:               class,
		NRanks:              nranks,
		Key:                 fmt.Sprintf("static|app=%s|class=%s|p=%d|src=%s", p.App, class, nranks, p.SourceHash),
		SourceHash:          p.SourceHash,
		Params:              ab.params,
		Sig:                 conv.sig,
		Placeholders:        conv.placeholders,
		PlaceholderKeys:     conv.placeholderKeys,
		computePlaceholders: conv.computePlaceholders,
	}
	p.memo[key] = inst
	return inst, nil
}

// CalibrateWork rescales the calibratable compute placeholders by the
// given factor and recomputes the signature's application time. Exact
// compute values and communication estimates are left untouched. The
// adjustment applies in place — to this (shared, memoized) instance.
func (in *Instance) CalibrateWork(factor float64) {
	for _, id := range in.computePlaceholders {
		in.Sig.Clusters[id].Duration *= factor
	}
	in.Sig.AppTime = maxRankTime(in.Sig)
}

// CalibrateToAppTime fits the placeholder compute scale to one measured
// dedicated application time (the "short class-S run" hook): on the
// dominant rank, solve measured = fixed + factor*placeholder for the
// factor and apply it. Returns the factor applied (1 when there is
// nothing to calibrate or the measurement is smaller than the fixed
// part).
func (in *Instance) CalibrateToAppTime(measured float64) float64 {
	r := argmaxRank(in.Sig)
	placeholder := 0.0
	set := map[int]bool{}
	for _, id := range in.computePlaceholders {
		set[id] = true
	}
	var walk func(seq []signature.Node, mult float64)
	walk = func(seq []signature.Node, mult float64) {
		for _, n := range seq {
			switch x := n.(type) {
			case signature.Leaf:
				if set[x.C.ID] {
					placeholder += x.C.Duration * mult
				}
			case *signature.Loop:
				walk(x.Body, mult*float64(x.Count))
			}
		}
	}
	walk(in.Sig.PerRank[r], 1)
	fixed := in.Sig.RankTime(r) - placeholder
	if placeholder <= 0 || measured <= fixed {
		return 1
	}
	factor := (measured - fixed) / placeholder
	in.CalibrateWork(factor)
	return factor
}

func maxRankTime(s *signature.Signature) float64 {
	t := 0.0
	for r := range s.PerRank {
		if rt := s.RankTime(r); rt > t {
			t = rt
		}
	}
	return t
}

func argmaxRank(s *signature.Signature) int {
	best, bt := 0, -1.0
	for r := range s.PerRank {
		if rt := s.RankTime(r); rt > bt {
			best, bt = r, rt
		}
	}
	return best
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
