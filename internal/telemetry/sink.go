package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
)

// Manifest identifies a run: which command produced the metrics, with
// what arguments, when, on which toolchain. It is the first line of a
// JSONL metrics dump so a file is self-describing.
type Manifest struct {
	Command   string            `json:"command"`
	Args      []string          `json:"args,omitempty"`
	Start     string            `json:"start,omitempty"` // RFC 3339
	GoVersion string            `json:"go_version,omitempty"`
	Labels    map[string]string `json:"labels,omitempty"`
}

// WriteJSONL emits the manifest (when non-nil) followed by one metric
// per line, each a standalone JSON object. Every line carries a "type"
// field: "manifest" for the header line, then the metric's own type
// ("counter", "gauge" or "histogram"). Metrics should come from
// Registry.Snapshot and are emitted in the given (sorted) order.
func WriteJSONL(w io.Writer, m *Manifest, metrics []Metric) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if m != nil {
		raw, err := json.Marshal(m)
		if err != nil {
			return err
		}
		line := []byte(`{"type":"manifest"}`)
		if len(raw) > 2 {
			line = append(append([]byte(`{"type":"manifest",`), raw[1:len(raw)-1]...), '}')
		}
		if err := enc.Encode(json.RawMessage(line)); err != nil {
			return err
		}
	}
	for i := range metrics {
		if err := enc.Encode(metrics[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
