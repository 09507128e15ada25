package attack

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"

	"unimem/internal/core"
)

// soakSeeds returns how many seeds the soak runs per (scheme, class) cell.
// Defaults stay small enough for the -race CI lane; ATTACK_SOAK_SEEDS
// scales the campaign up for long local runs.
func soakSeeds(t *testing.T) int {
	if v := os.Getenv("ATTACK_SOAK_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("invalid ATTACK_SOAK_SEEDS=%q", v)
		}
		return n
	}
	if testing.Short() {
		return 1
	}
	return 3
}

// TestSoak is the property-based adversarial soak: randomized-schedule
// campaigns across every scheme x class cell, each derived deterministically
// from its seed. A failing cell writes a JSON artifact whose Config replays
// the exact schedule (go test -run TestReplayArtifact with ATTACK_ARTIFACT
// pointing at the file).
func TestSoak(t *testing.T) {
	t.Parallel()
	seeds := soakSeeds(t)
	base := newRNG(0xdecafbad)
	for _, s := range core.Schemes {
		for _, c := range Classes {
			for i := 0; i < seeds; i++ {
				cfg := Config{Scheme: s, Class: c, Seed: base.next(), Chunks: 3 + int(base.rangeN(3)), Ops: 32 + int(base.rangeN(64))}
				t.Run(s.String()+"/"+c.String()+"/"+strconv.Itoa(i), func(t *testing.T) {
					t.Parallel()
					res := Run(cfg)
					if m := Verdict(cfg, res); m != "" {
						path, err := newArtifact(cfg, res, m).save(t.TempDir())
						if err != nil {
							t.Logf("artifact write failed: %v", err)
						}
						t.Fatalf("%s\nreplay artifact: %s\nreplay with: ATTACK_ARTIFACT=%s go test ./internal/attack -run TestReplayArtifact",
							m, path, path)
					}
				})
			}
		}
	}
}

// TestReplayArtifact replays the artifact named by ATTACK_ARTIFACT — the
// debugging entry point for a soak failure. Without the variable it
// round-trips a synthetic artifact through Save/Load and verifies the
// replay reproduces the recorded Result bit for bit.
func TestReplayArtifact(t *testing.T) {
	if path := os.Getenv("ATTACK_ARTIFACT"); path != "" {
		a, err := loadArtifact(path)
		if err != nil {
			t.Fatal(err)
		}
		res := a.replay()
		t.Logf("replayed %s x %s seed=%#x: landed=%v detected=%v diverged=%v err=%q",
			a.SchemeName, a.ClassName, a.Config.Seed, res.Landed, res.Detected, res.Diverged, res.Err)
		if m := Verdict(a.Config, res); m != "" {
			t.Fatalf("mismatch reproduced: %s\nschedule:\n  %s", m, res.Schedule[len(res.Schedule)-1])
		}
		return
	}

	cfg := Config{Scheme: core.Ours, Class: XGranSplice, Seed: 0xabcdef}
	res := Run(cfg)
	art := newArtifact(cfg, res, "synthetic")
	path, err := art.save(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := loadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config != cfg {
		t.Fatalf("config round-trip drifted: %+v != %+v", loaded.Config, cfg)
	}
	got, want := loaded.replay(), res
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Fatalf("replay diverged from recorded result\ngot:  %s\nwant: %s", gb, wb)
	}
}

// TestRunDeterministic asserts the replayability contract directly: the
// same Config produces bit-identical Results, including the schedule log.
func TestRunDeterministic(t *testing.T) {
	t.Parallel()
	for _, cfg := range []Config{
		{Scheme: core.Ours, Class: Replay, Seed: 7},
		{Scheme: core.MACOnly, Class: Replay, Seed: 7},
		{Scheme: core.Conventional, Class: CounterTamper, Seed: 9, Chunks: 5, Ops: 80},
		{Scheme: core.Ours, Class: XGranSplice, Seed: 11},
	} {
		a, _ := json.Marshal(Run(cfg))
		b, _ := json.Marshal(Run(cfg))
		if string(a) != string(b) {
			t.Errorf("Run(%+v) is not deterministic\nfirst:  %s\nsecond: %s", cfg, a, b)
		}
	}
}

// artifact is a replayable capture of one campaign: the exact Config that
// produced a result plus the observed outcome and schedule. Because Run is
// deterministic in Config, loading an artifact and re-running its Config
// reproduces the failure bit for bit — the soak's failure hand-off.
type artifact struct {
	// SchemeName / ClassName are the human-readable redundant labels
	// (Config carries the numeric values the replay uses).
	SchemeName string `json:"scheme_name"`
	ClassName  string `json:"class_name"`
	Config     Config `json:"config"`
	// Mismatch is the Verdict text that failed the campaign.
	Mismatch string `json:"mismatch"`
	Result   Result `json:"result"`
}

// newArtifact packages a failed campaign for replay.
func newArtifact(cfg Config, res Result, mismatch string) *artifact {
	return &artifact{
		SchemeName: cfg.Scheme.String(),
		ClassName:  cfg.Class.String(),
		Config:     cfg,
		Mismatch:   mismatch,
		Result:     res,
	}
}

// save writes the artifact as indented JSON to a fresh temp file and
// returns its path.
func (a *artifact) save(dir string) (string, error) {
	f, err := os.CreateTemp(dir, "attack-campaign-*.json")
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("attack: write artifact: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("attack: write artifact: %w", err)
	}
	return f.Name(), nil
}

// loadArtifact reads a saved campaign artifact.
func loadArtifact(path string) (*artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("attack: parse artifact %s: %w", path, err)
	}
	return &a, nil
}

// replay re-runs the artifact's campaign and reports the fresh result.
func (a *artifact) replay() Result { return Run(a.Config) }
