package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"

	"perfskel/internal/campaign"
	"perfskel/internal/nas"
	"perfskel/internal/service"
)

// golden.json maps every output key to the SHA-256 of its output:
// response bodies per request key, and per sweep app the predictions and
// the critical-path summaries. Regenerate with --write-golden.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("golden.json: %v", err))
	}
	return m
}()

// srcHash matches the analyzed-source hash static responses embed in
// their cache key and app identity; it changes with any edit of
// internal/nas, so digests leave it out.
var srcHash = regexp.MustCompile(`src=[0-9a-f]+`)

// bodyDigest hashes a response body in canonical form: keys sorted,
// numbers as printed, cache.key dropped and source hashes blanked.
func bodyDigest(body []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v map[string]any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	if c, ok := v["cache"].(map[string]any); ok {
		delete(c, "key")
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digest(srcHash.ReplaceAll(canon, []byte("src="))), nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func jsonDigest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// checker compares outputs with their goldens. A body byte-identical to
// one already checked for the same key passes without re-hashing.
type checker struct {
	seen map[string]checked
}

type checked struct {
	body []byte
	resp service.Response
}

func (c *checker) body(key string, body []byte) (service.Response, error) {
	if v, ok := c.seen[key]; ok && bytes.Equal(v.body, body) {
		return v.resp, nil
	}
	got, err := bodyDigest(body)
	if err != nil {
		return service.Response{}, fmt.Errorf("decode body: %w", err)
	}
	if err := match(key, got); err != nil {
		return service.Response{}, err
	}
	var r service.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("decode body: %w", err)
	}
	if c.seen == nil {
		c.seen = map[string]checked{}
	}
	c.seen[key] = checked{body: bytes.Clone(body), resp: r}
	return r, nil
}

func (c *checker) sweep(app string, preds []campaign.Prediction, cps map[string]campaign.PathSummary) error {
	digests, err := sweepDigests(app, preds, cps)
	if err != nil {
		return err
	}
	for key, got := range digests {
		if err := match(key, got); err != nil {
			return err
		}
	}
	return nil
}

// sweepDigests returns the golden keys and digests of one sweep op's
// outputs: its predictions and its critical-path summaries.
func sweepDigests(app string, preds []campaign.Prediction, cps map[string]campaign.PathSummary) (map[string]string, error) {
	p, err := jsonDigest(preds)
	if err != nil {
		return nil, err
	}
	c, err := jsonDigest(cps)
	if err != nil {
		return nil, err
	}
	return map[string]string{"sweep/" + app + "/predictions": p, "sweep/" + app + "/critpaths": c}, nil
}

func match(key, got string) error {
	want, ok := golden[key]
	if !ok {
		return fmt.Errorf("no golden digest for %s", key)
	}
	if got != want {
		return fmt.Errorf("%s: output digest %.12s differs from golden %.12s", key, got, want)
	}
	return nil
}

// writeGoldens computes every key's output digest at the current source
// and writes them to path.
func writeGoldens(path string) error {
	out := map[string]string{}
	f, err := newFront()
	if err != nil {
		return err
	}
	defer f.close()
	f.cur.Store(newServer())
	for _, keys := range append(predictKeys(), staticKeys()...) {
		for _, key := range keys {
			_, body, err := f.send(key)
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			if out[key], err = bodyDigest(body); err != nil {
				return err
			}
		}
	}
	for _, a := range apps {
		app, err := campaign.NASApp(a, nas.Class(class))
		if err != nil {
			return err
		}
		eng := campaign.New(campaign.Config{Workers: workers, Telemetry: true})
		preds, err := eng.PredictAllContext(context.Background(), sweepGrid(app))
		if err != nil {
			return err
		}
		cps, err := eng.CritPaths()
		if err != nil {
			return err
		}
		digests, err := sweepDigests(a, preds, cps)
		if err != nil {
			return err
		}
		for k, v := range digests {
			out[k] = v
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
