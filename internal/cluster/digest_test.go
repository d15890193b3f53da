package cluster

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

	"viper/internal/core"
	"viper/internal/histgen"
	"viper/internal/histio"
	"viper/internal/history"
	"viper/internal/workload"
)

var updateShardDigests = flag.Bool("update", false, "rewrite testdata/shard_digests.txt (and write missing testdata/shard_histories)")

const shardDigestFile = "testdata/shard_digests.txt"

// workerDigest is the digest stream a worker answers shard kr of h with:
// the binary job is encoded and decoded, the decoded slice recorded, and
// every record framed, exactly as handleShard does.
func workerDigest(t *testing.T, h *history.History, kr keyRange, opts core.Options) []byte {
	t.Helper()
	var job bytes.Buffer
	if err := encodeShardJob(&job, h, kr, opts); err != nil {
		t.Fatal(err)
	}
	dopts, dh, _, err := decodeShardJob(bufio.NewReader(&job))
	if err != nil {
		t.Fatal(err)
	}
	var dig bytes.Buffer
	enc := newDigestEncoder(&dig, "w")
	err = core.BuildShardRecordsOrdered(dh, dopts, dh.Keys(), func(_ int, rec *core.KeyRecord) error {
		return enc.record(rec)
	})
	if err == nil {
		err = enc.close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return dig.Bytes()
}

// shardHistory loads one pinned input history. The runner interleaves
// its clients differently from run to run, so each history of
// TestSliceRecordsEqualFull is generated once and checked in; -update
// writes the ones that are missing.
func shardHistory(t *testing.T, name string, gen func() *history.History) *history.History {
	t.Helper()
	path := filepath.Join("testdata", "shard_histories", name+".jsonl")
	if *updateShardDigests {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			var b bytes.Buffer
			if err := histio.Encode(&b, gen()); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := histio.Decode(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return h
}

// shardDigests hashes the concatenated worker digests of every shard,
// for each history of TestSliceRecordsEqualFull, level, combining and
// coalescing setting and shard count, keyed by case name.
func shardDigests(t *testing.T) map[string]string {
	t.Helper()
	histories := map[string]*history.History{
		"histgen-si": histgen.SI(histgen.Spec{Txns: 200, Keys: 9, MaxConcurrency: 6, AbortEvery: 7, Seed: 5}),
		"blindw-rw": shardHistory(t, "blindw-rw", func() *history.History {
			return generated(t, workload.NewBlindWRW(), 250, 11)
		}),
		"append-rmw": shardHistory(t, "append-rmw", func() *history.History {
			return generated(t, workload.NewAppend(), 200, 13)
		}),
		"range-b": shardHistory(t, "range-b", func() *history.History {
			return generated(t, workload.NewRangeB(), 180, 17)
		}),
	}
	out := make(map[string]string)
	for name, h := range histories {
		for _, level := range []core.Level{core.AdyaSI, core.StrongSessionSI, core.Serializability} {
			for _, combine := range []bool{true, false} {
				for _, coalesce := range []bool{true, false} {
					opts := core.Options{Level: level, DisableCombineWrites: !combine, DisableCoalesce: !coalesce, Parallelism: 1}
					for _, shards := range []int{2, 3} {
						sum := sha256.New()
						for _, kr := range partitionKeys(h, shards, 0) {
							sum.Write(workerDigest(t, h, kr, opts))
						}
						label := fmt.Sprintf("%s/%v/combine=%v/coalesce=%v/shards=%d", name, level, combine, coalesce, shards)
						out[label] = fmt.Sprintf("%x", sum.Sum(nil))
					}
				}
			}
		}
	}
	return out
}

// TestShardDigests pins the digest bytes on the wire, not just their
// round trip: every case's worker digests must hash to the line checked
// in under testdata ("digest case-name"). Run with -update to rewrite
// the file after an intended change to the digest format or to
// recording.
func TestShardDigests(t *testing.T) {
	got := shardDigests(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	slices.Sort(names)
	if *updateShardDigests {
		var b bytes.Buffer
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", got[name], name)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shardDigestFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(shardDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		digest, name, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[name] = digest
	}
	for _, name := range names {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no checked-in digest (run with -update)", name)
		case w != got[name]:
			t.Errorf("%s: shard digest %s, want %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: checked-in digest has no case", name)
		}
	}
}
