package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// BenchSchemaVersion is the current version of the BENCH_*.json
// document schema: one flat BenchDoc per suite. Versions 1 and 2 wrote
// each suite's own nested report shape; readers (internal/benchcmp)
// refuse them.
const BenchSchemaVersion = 3

// Metric directions of a BenchRow.
const (
	Lower  = "lower"  // a cost: the row regresses when it goes up
	Higher = "higher" // a ratio or throughput: it regresses going down
)

// BenchRow is one comparable measurement: metric of case, taken at
// params. Two documents' rows pair by (Case, Metric), and only rows
// with equal Params are compared.
type BenchRow struct {
	Case   string           `json:"case"`
	Params map[string]int64 `json:"params"`
	Metric string           `json:"metric"`
	Better string           `json:"better"` // Lower or Higher
	Value  float64          `json:"value"`
}

// BenchDoc is the document every legacy suite writes (BENCH_*.json):
// provenance, the descriptive settings nothing compares (threads,
// quick, reps, warmups, nest, mix), and the flat rows.
type BenchDoc struct {
	Suite  string            `json:"suite"`
	Meta   BenchMeta         `json:"meta"`
	Config map[string]string `json:"config"`
	Rows   []BenchRow        `json:"rows"`
}

// WriteDoc stamps d with this host's meta and writes it as indented
// JSON to path.
func WriteDoc(path string, d BenchDoc) error {
	d.Meta = NewBenchMeta()
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// config renders alternating key, value arguments as a BenchDoc config.
func config(kv ...interface{}) map[string]string {
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i].(string)] = fmt.Sprint(kv[i+1])
	}
	return m
}

// BenchMeta records the provenance of a benchmark document: enough to
// tell whether two BENCH_*.json files are comparable (same machine
// class, same toolchain) and when each was taken.
type BenchMeta struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`
	// CPUModel is the model name from /proc/cpuinfo (empty when the
	// platform does not expose one).
	CPUModel string `json:"cpu_model,omitempty"`
	// TimestampUTC is the document creation time, RFC 3339, UTC.
	TimestampUTC string `json:"timestamp_utc"`
}

// NewBenchMeta snapshots the current process and host.
func NewBenchMeta() BenchMeta {
	return BenchMeta{
		SchemaVersion: BenchSchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		CPUModel:      cpuModel(),
		TimestampUTC:  time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel extracts the first "model name" line from /proc/cpuinfo.
// Best-effort: any failure yields "".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok {
			switch strings.TrimSpace(k) {
			case "model name", "Processor", "cpu model":
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// caseRows returns an appender of one case's rows to *rows.
func caseRows(rows *[]BenchRow, name string, params map[string]int64) func(metric, better string, v float64) {
	return func(metric, better string, v float64) {
		*rows = append(*rows, BenchRow{Case: name, Params: params, Metric: metric, Better: better, Value: v})
	}
}
