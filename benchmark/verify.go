package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"accelproc/internal/pipeline"
	"accelproc/internal/smformat"
)

// products is the digest of one run's outputs: every product file's SHA-256
// by name, plus the stations the run quarantined.
type products struct {
	Files       map[string]string
	Quarantined []string
}

// digestProducts hashes the products in dir, following the rule of the
// pipeline's own byte-identity tests: the input record files, the simulated
// filter binary, the flags file, and the journal and action-cache
// directories are not products.  Any other directory is scratch a run left
// behind, and an error.
func digestProducts(dir string, inputs map[string]bool, quarantined []pipeline.RecordOutcome) (products, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return products{}, err
	}
	p := products{Files: make(map[string]string, len(entries))}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			if name == pipeline.RunJournalDir || name == pipeline.CacheDirName {
				continue
			}
			return products{}, fmt.Errorf("leftover directory %s in %s", name, dir)
		}
		if inputs[name] || name == "_filter.exe" || name == smformat.FlagsFile {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return products{}, err
		}
		sum := sha256.Sum256(data)
		p.Files[name] = hex.EncodeToString(sum[:])
	}
	for _, q := range quarantined {
		p.Quarantined = append(p.Quarantined, q.Station)
	}
	sort.Strings(p.Quarantined)
	return p, nil
}

// diff describes how got differs from the reference want, or returns "".
func (want products) diff(got products) string {
	if g, w := strings.Join(got.Quarantined, ","), strings.Join(want.Quarantined, ","); g != w {
		return fmt.Sprintf("quarantined [%s], reference [%s]", g, w)
	}
	if len(got.Files) != len(want.Files) {
		return fmt.Sprintf("%d products, reference %d", len(got.Files), len(want.Files))
	}
	for name, h := range want.Files {
		if got.Files[name] != h {
			return "product " + name + " differs from the reference"
		}
	}
	return ""
}

// fingerprint folds the digest into one hex string, the form golden.json
// records.
func (p products) fingerprint() string {
	names := make([]string, 0, len(p.Files))
	for name := range p.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s %s\n", name, p.Files[name])
	}
	fmt.Fprintf(h, "quarantined %s\n", strings.Join(p.Quarantined, ","))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenJSON maps each workload to the fingerprints of its reference
// products at seed 0, one per distinct input set in setup order.  Float
// results are only promised bit-identical on one architecture, so it is
// checked on amd64 alone.
//
//go:embed golden.json
var goldenJSON []byte

func golden() (map[string][]string, error) {
	var g map[string][]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}
