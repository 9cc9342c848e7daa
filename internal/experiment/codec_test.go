package experiment

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mptcplab/internal/sweep"
	"mptcplab/internal/units"
)

// throughBinary and throughJSON are the store's two value forms: the
// one this commit writes and the one every earlier daemon wrote.
func throughBinary(t testing.TB, r RunResult) RunResult {
	t.Helper()
	b, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out RunResult
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	return out
}

func throughJSON(t testing.TB, r RunResult) RunResult {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out RunResult
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func runOnce(rc RunConfig) RunResult {
	tb := NewTestbed(TestbedConfig{WiFi: baselineWiFi(), Cell: baselineCell(), WarmRadio: true, Seed: 61})
	return tb.Run(rc)
}

// TestResultBinaryRoundTrip: the binary form and the JSON form each
// give back the result they were handed — so a hit decodes to one value
// whichever daemon stored it.
func TestResultBinaryRoundTrip(t *testing.T) {
	check := func(name string, r RunResult) {
		t.Helper()
		if !reflect.DeepEqual(throughBinary(t, r), r) {
			t.Errorf("%s: binary round trip changed the result", name)
		}
		if !reflect.DeepEqual(throughJSON(t, r), r) {
			t.Errorf("%s: JSON round trip changed the result", name)
		}
	}

	// Every run of the golden campaign crosses the codec on its way into
	// its cell, and the exports still are the fixtures.
	runs := 0
	m := SmallFlows(CampaignOpts{Reps: 2, Seed: 42, SampleProfiles: true, Workers: 1,
		Intercept: func(_ CampaignJob, run func() RunResult) RunResult {
			r := run()
			runs++
			check("golden run", r)
			return throughBinary(t, r)
		}})
	var csv bytes.Buffer
	if err := WriteCSV(&csv, m); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_smallflows_seed42_reps2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if runs == 0 || !bytes.Equal(csv.Bytes(), want) {
		t.Errorf("golden CSV differs after %d runs went through the binary codec", runs)
	}

	fig12 := runOnce(RunConfig{Transport: MP2, Controller: "coupled", Size: 4 * units.MB})
	if len(fig12.WiFiRTTms) == 0 || len(fig12.CellRTTms) == 0 || len(fig12.OFOms) == 0 {
		t.Fatalf("the Fig 12 cell is missing a series: %d/%d/%d samples",
			len(fig12.WiFiRTTms), len(fig12.CellRTTms), len(fig12.OFOms))
	}
	check("fig12 cell", fig12)

	sp := runOnce(RunConfig{Transport: SPWiFi, Size: 512 * units.KB})
	if sp.OFOms != nil || sp.CellRTTms != nil {
		t.Fatal("a single-path WiFi run has cellular or out-of-order samples")
	}
	check("single-path", sp)

	check("failed", failedResult(errors.New("watchdog: no progress")))

	chaotic := runOnce(RunConfig{Transport: MP2, Size: 2 * units.MB, Chaos: mustSchedule(t, "outage:path=wifi;at=200ms;dur=300ms")})
	if chaotic.Resilience == nil || chaotic.Resilience.Recoveries == 0 {
		t.Fatalf("no scored resilience report: %+v", chaotic.Resilience)
	}
	check("resilience", chaotic)
}

// parentJSON is an experiment row as daemons before the binary form
// stored it (json.Marshal of an 8 KB MP-2 run; RTT samples added by
// hand).
const parentJSON = `{"Completed":true,"DownloadTime":52861274,"WiFiBytesSent":8432,"CellBytesSent":0,"WiFiDataPkts":6,"CellDataPkts":0,"WiFiRetransPkts":0,"CellRetransPkts":0,"WiFiRTTms":[21.337,19.5],"CellRTTms":null,"OFOms":[0,0,0,0,0,0],"WiFiBytesAcked":0,"CellBytesAcked":0,"Subflows":1,"Penalties":0,"Events":20,"Violations":0,"FirstViolation":"","FailReason":"","Resilience":null}`

// TestMemoResultForms drives RunResult through sweep.Memo: a miss is
// stored in the binary form, and anything else, the JSON a daemon from
// before the binary form stored included, is a miss that gets
// overwritten.
func TestMemoResultForms(t *testing.T) {
	st := sweep.NewCache()
	fresh := RunResult{Completed: true, DownloadTime: 7, WiFiRTTms: []float64{1.5, 2.5}}
	keep := func(RunResult) bool { return true }
	runs := 0
	memo := func(key string) (RunResult, bool) {
		return sweep.Memo(st, key, keep, func() RunResult { runs++; return fresh })
	}

	if _, hit := memo("new"); hit || runs != 1 {
		t.Fatalf("first call: hit=%v after %d runs", hit, runs)
	}
	if b, _ := st.Get("new"); len(b) == 0 || b[0] != resultVersion {
		t.Fatalf("a new row was not stored in the binary form: % x…", b[:min(len(b), 8)])
	}
	if got, hit := memo("new"); !hit || runs != 1 || !reflect.DeepEqual(got, fresh) {
		t.Fatalf("second call: hit=%v after %d runs, result %+v", hit, runs, got)
	}

	st.Put("legacy", []byte(parentJSON))
	if _, hit := memo("legacy"); hit || runs != 2 {
		t.Fatalf("a JSON value: hit=%v after %d runs; want a miss that runs once", hit, runs)
	}
	if got, hit := memo("legacy"); !hit || runs != 2 || !reflect.DeepEqual(got, fresh) {
		t.Fatalf("a JSON value was not overwritten: hit=%v after %d runs, result %+v", hit, runs, got)
	}
	if b, _ := st.Get("legacy"); len(b) == 0 || b[0] != resultVersion {
		t.Fatalf("a JSON value was rewritten as % x…, not the binary form", b[:min(len(b), 8)])
	}

	good, _ := fresh.MarshalBinary()
	for name, tc := range damagedValues(good) {
		var r RunResult
		err := r.UnmarshalBinary(tc.value)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: UnmarshalBinary = %v, want one line containing %q", name, err, tc.want)
		}
		if !reflect.DeepEqual(r, RunResult{}) {
			t.Errorf("%s: a rejected value left %+v behind", name, r)
		}
		st.Put(name, tc.value)
		before := runs
		if _, hit := memo(name); hit || runs != before+1 {
			t.Errorf("%s: hit=%v, %d runs; want a miss that runs once", name, hit, runs-before)
		}
		if got, hit := memo(name); !hit || runs != before+1 || !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: not overwritten: hit=%v, %d runs, result %+v", name, hit, runs-before, got)
		}
	}
}

type damaged struct {
	value []byte
	want  string // what the error must say
}

// damagedValues are the ways a stored value can be wrong while its
// record still passes the store's CRC (a future version, a bug, a
// foreign writer): each is one byte or one count away from good.
func damagedValues(good []byte) map[string]damaged {
	clone := func(edit func(b []byte) []byte) []byte { return edit(bytes.Clone(good)) }
	scalars := int(binary.LittleEndian.Uint32(good[1:]))
	firstCount := 1 + 4 + scalars
	return map[string]damaged{
		"empty":                 {nil, "version"},
		"bad version":           {clone(func(b []byte) []byte { b[0] = 2; return b }), "version"},
		"truncated in a count":  {good[:firstCount+2], "truncated"},
		"truncated in a series": {good[:firstCount+4+8], "left"},
		"over-long count": {clone(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[firstCount:], math.MaxUint32)
			return b
		}), "left"},
		"over-long scalars": {clone(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[1:], uint32(len(b)))
			return b
		}), "left"},
		"bad scalars":   {clone(func(b []byte) []byte { b[5] = '['; return b }), "scalars"},
		"trailing byte": {append(bytes.Clone(good), 0), "trailing"},
	}
}

// TestResultDecodeAllocBudget: decoding allocates the three series and
// what encoding/json needs for twenty scalars (8 objects measured) —
// nothing per sample, however long the download was.
func TestResultDecodeAllocBudget(t *testing.T) {
	r := runOnce(RunConfig{Transport: MP2, Controller: "coupled", Size: 4 * units.MB})
	b, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out RunResult
	const limit = 16
	if a := testing.AllocsPerRun(20, func() {
		if err := out.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
	}); a > limit {
		t.Errorf("decoding a 4 MB MP-2 result (%d samples) allocates %v objects, budget %d",
			len(r.WiFiRTTms)+len(r.CellRTTms)+len(r.OFOms), a, limit)
	}
}

// FuzzResultBinary is the decoder of store bytes: whatever a segment
// file holds, decoding never panics, never allocates for a count the
// input does not back with bytes, and accepts only values that
// re-encode to themselves.
func FuzzResultBinary(f *testing.F) {
	for _, r := range []RunResult{
		{},
		{Completed: true, DownloadTime: 7, WiFiRTTms: []float64{1.5, 2.5}, OFOms: []float64{0, math.Inf(1)}},
		failedResult(errors.New("watchdog")),
		runOnce(RunConfig{Transport: MP2, Size: 64 * units.KB}),
	} {
		good, err := r.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
		for _, d := range damagedValues(good) {
			f.Add(d.value)
		}
	}
	f.Add([]byte(parentJSON))

	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var r RunResult
		err := r.UnmarshalBinary(in)
		runtime.ReadMemStats(&after)
		// encoding/json may spend a few times the scalar section on
		// values it then discards; a count of 2^32-1 samples taken at
		// its word would spend 32 GB.
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 64*uint64(len(in))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(in), spent)
		}
		if err != nil {
			return
		}
		if n := len(r.WiFiRTTms) + len(r.CellRTTms) + len(r.OFOms); 8*n > len(in) {
			t.Fatalf("%d samples out of %d bytes", n, len(in))
		}
		// The three series and every count re-encode byte for byte, NaN
		// payloads included. The scalar section is read as leniently as
		// the parent read its JSON (field order, spacing, unknown
		// fields), so it re-encodes to its canonical form: the fixed
		// point is reached after one round.
		out, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("an accepted value does not re-encode: %v", err)
		}
		tail := func(b []byte) []byte { return b[1+4+binary.LittleEndian.Uint32(b[1:]):] }
		if !bytes.Equal(tail(out), tail(in)) {
			t.Fatal("the series sections did not re-encode to themselves")
		}
		var r2 RunResult
		if err := r2.UnmarshalBinary(out); err != nil {
			t.Fatalf("a re-encoded value does not decode: %v", err)
		}
		if out2, _ := r2.MarshalBinary(); !bytes.Equal(out2, out) {
			t.Fatal("Marshal(Unmarshal(Marshal(r))) is not a fixed point")
		}
	})
}

func BenchmarkResultCodec(b *testing.B) {
	r := runOnce(RunConfig{Transport: MP2, Controller: "coupled", Size: 16 * units.MB})
	bin, _ := r.MarshalBinary()
	js, _ := json.Marshal(r)
	b.Logf("16 MB MP-2 result: %d samples, binary %d bytes, JSON %d bytes",
		len(r.WiFiRTTms)+len(r.CellRTTms)+len(r.OFOms), len(bin), len(js))
	// Decodes start from a zero value, as sweep.Memo's do.
	b.Run("binary/encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.MarshalBinary()
		}
	})
	b.Run("binary/decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out RunResult
			out.UnmarshalBinary(bin)
		}
	})
	b.Run("json/encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			json.Marshal(r)
		}
	})
	b.Run("json/decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out RunResult
			json.Unmarshal(js, &out)
		}
	})
}
