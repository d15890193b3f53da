package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"viper/internal/histgen"
	"viper/internal/history"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/polygraph_digests.txt")

const digestFile = "testdata/polygraph_digests.txt"

// polygraphDump renders a polygraph canonically: the node count, every
// known edge in order with its kind and key, and every constraint in
// order with its sides, kinds and key. The header's "contradiction false"
// is a constant: polygraphs once carried a flag for a constraint with
// both sides impossible, which construction never produces, and the
// checked-in digests hash the header as it was.
func polygraphDump(pg *Polygraph) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "nodes %d contradiction false\n", pg.NumNodes)
	for _, ke := range pg.Known {
		fmt.Fprintf(&b, "k %d>%d %v %q\n", ke.From, ke.To, ke.Kind, ke.Key)
	}
	side := func(es []Edge) string {
		parts := make([]string, len(es))
		for i, e := range es {
			parts[i] = fmt.Sprintf("%d>%d", e.From, e.To)
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	for _, c := range pg.Cons {
		fmt.Fprintf(&b, "c %s %s %v %v %q\n", side(c.First), side(c.Second), c.Kind1, c.Kind2, c.Key)
	}
	return b.Bytes()
}

// rangeOmission is a range query whose result omits written keys inside
// its bounds: the omitted keys are read from genesis.
func rangeOmission(t *testing.T) *history.History {
	t.Helper()
	b := history.NewBuilder()
	s1, s2, s3 := b.Session(), b.Session(), b.Session()
	t1 := s1.Txn().Write("b").Commit()
	s2.Txn().Write("c").Write("d").Commit()
	s3.Txn().Range("a", "e", history.Version{Key: "b", WriteID: t1.WriteIDOf("b")}).Commit()
	s1.Txn().ReadObserved("b", t1.WriteIDOf("b")).Write("b").Write("c").Commit()
	return b.MustHistory()
}

// polygraphDigests hashes the canonical dump of Build's polygraph for
// every corpus history, level and combining/coalescing setting, keyed by
// case name.
func polygraphDigests(t *testing.T) map[string]string {
	t.Helper()
	corpus := matrixCorpus(t)
	corpus["figure2"] = figure2(t)
	corpus["long-fork"] = longFork(t)
	corpus["lost-update"] = lostUpdate(t)
	corpus["write-skew"] = writeSkew(t)
	corpus["read-skew"] = readSkew(t)
	corpus["range-omission"] = rangeOmission(t)
	corpus["si-gen/400x40"] = histgen.SI(histgen.Spec{Txns: 400, Keys: 40, MaxConcurrency: 5, AbortEvery: 9, Seed: 7})
	out := make(map[string]string)
	for name, h := range corpus {
		if err := h.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, level := range []Level{AdyaSI, GSI, StrongSessionSI, StrongSI, Serializability} {
			for _, combine := range []bool{true, false} {
				for _, coalesce := range []bool{true, false} {
					opts := Options{Level: level, DisableCombineWrites: !combine, DisableCoalesce: !coalesce}
					label := fmt.Sprintf("%s/%v/combine=%v/coalesce=%v", name, level, combine, coalesce)
					out[label] = fmt.Sprintf("%x", sha256.Sum256(polygraphDump(Build(h, opts))))
				}
			}
		}
	}
	return out
}

// TestPolygraphDigests pins the polygraph itself, not just its agreement
// across worker counts: every case's canonical dump must hash to the
// digest checked in under testdata (one "digest case-name" line each).
// Run with -update to rewrite the file after an intended change to
// construction.
func TestPolygraphDigests(t *testing.T) {
	got := polygraphDigests(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	slices.Sort(names)
	if *updateDigests {
		var b bytes.Buffer
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", got[name], name)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no checked-in digest (run with -update)", name)
		case w != got[name]:
			t.Errorf("%s: polygraph digest %s, want %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: checked-in digest has no case", name)
		}
	}
}
