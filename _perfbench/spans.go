package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share its
// op id; the replay of an op hangs under a "replay" span whose parent is
// the op's own span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
	// Pipeline marks a replayed call the op itself makes; the other
	// leaves are comparison runs (untraced, unprobed) and probes.
	Pipeline bool `json:"pipeline,omitempty"`
}

// spans keeps a traced run's spans in memory until the run ends.
type spans struct {
	t0   time.Time
	list []span
}

func (s *spans) us(t time.Time) float64 { return float64(t.Sub(s.t0)) / float64(time.Microsecond) }

// addAt records a finished span and returns its id.
func (s *spans) addAt(op, parent int, name string, start, end time.Time) int {
	id := len(s.list) + 1
	if op == 0 {
		op = id
	}
	s.list = append(s.list, span{ID: id, Parent: parent, Op: op, Name: name, Start: s.us(start), End: s.us(end)})
	return id
}

// leaf times f as a span of op under parent and returns its duration
// in milliseconds. pipeline says whether the op itself makes the call.
func (s *spans) leaf(op, parent int, name string, pipeline bool, f func() error) (float64, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	id := s.addAt(op, parent, name, start, end)
	s.list[id-1].Pipeline = pipeline
	return ms(end.Sub(start)), err
}

// selfTimes sets each span's self time: its duration minus the part of
// it its children cover.
func (s *spans) selfTimes() {
	kids := map[int][]int{}
	for i, sp := range s.list {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], i)
		}
	}
	for i := range s.list {
		p := &s.list[i]
		var ivs [][2]float64
		for _, k := range kids[p.ID] {
			a, b := max(s.list[k].Start, p.Start), min(s.list[k].End, p.End)
			if a < b {
				ivs = append(ivs, [2]float64{a, b})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, end := 0.0, p.Start
		for _, iv := range ivs {
			if iv[1] <= end {
				continue
			}
			covered += iv[1] - max(iv[0], end)
			end = iv[1]
		}
		p.Self = p.End - p.Start - covered
	}
}

// write saves the spans as JSON.
func (s *spans) write(path string) error {
	s.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(s.list); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLeaves prints the replayed pipeline calls, largest first, with
// their time as a share of the ops' own wall time. Parallel ops (the
// sweep runs two workers) can sum to more than 100%.
func (s *spans) printLeaves(w io.Writer, workload string) {
	tot := map[string]float64{}
	ops := 0.0
	for _, sp := range s.list {
		switch {
		case sp.Name == "op":
			ops += sp.End - sp.Start
		case sp.Pipeline:
			tot[sp.Name] += sp.End - sp.Start
		}
	}
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return tot[names[a]] > tot[names[b]] })
	fmt.Fprintf(w, "%s: replayed pipeline calls as a share of %.0f ms of op time\n", workload, ops/1000)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %6.1f%%\n", n, 100*tot[n]/ops)
	}
}
