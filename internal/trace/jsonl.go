package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// JSONFloat marshals float64 exactly: finite values use the shortest
// round-trip decimal representation, and the non-finite values that
// encoding/json rejects (NaN, ±Inf — e.g. the sentinel infeasibility fill
// on failed attempts) are quoted strings that strconv.ParseFloat accepts
// back. Golden-trace files depend on this being byte-deterministic; the
// serving protocol writes its floats the same way.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(v, 'g', -1, 64)), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("trace: bad float %q: %w", s, err)
	}
	*f = JSONFloat(v)
	return nil
}

// jsonRecord mirrors Record with wire tags and non-finite-safe floats. The
// field order fixes the key order in golden files.
type jsonRecord struct {
	Engine    string `json:"engine,omitempty"`
	Problem   int    `json:"problem"`
	Attempt   int    `json:"attempt"`
	Iteration int    `json:"iteration"`
	Event     string `json:"event"`
	Status    string `json:"status,omitempty"`
	Stop      string `json:"stop,omitempty"`

	Mu                  JSONFloat `json:"mu"`
	DualityGap          JSONFloat `json:"gap"`
	PrimalInfeasibility JSONFloat `json:"pinf"`
	DualInfeasibility   JSONFloat `json:"dinf"`
	ConeInfeasibility   JSONFloat `json:"cone_inf,omitempty"`
	Theta               JSONFloat `json:"theta"`
	Objective           JSONFloat `json:"objective"`

	WriteRetries   int64     `json:"write_retries"`
	CellsWritten   int64     `json:"cells_written,omitempty"`
	CellsSkipped   int64     `json:"cells_skipped,omitempty"`
	TilesRefreshed int64     `json:"tiles_refreshed,omitempty"`
	NoiseEpoch     int64     `json:"noise_epoch"`
	EnergyJoules   JSONFloat `json:"energy_joules"`
}

func toJSON(r Record) jsonRecord {
	return jsonRecord{
		Engine:              r.Engine,
		Problem:             r.Problem,
		Attempt:             r.Attempt,
		Iteration:           r.Iteration,
		Event:               r.Event,
		Status:              r.Status,
		Stop:                r.Stop,
		Mu:                  JSONFloat(r.Mu),
		DualityGap:          JSONFloat(r.DualityGap),
		PrimalInfeasibility: JSONFloat(r.PrimalInfeasibility),
		DualInfeasibility:   JSONFloat(r.DualInfeasibility),
		ConeInfeasibility:   JSONFloat(r.ConeInfeasibility),
		Theta:               JSONFloat(r.Theta),
		Objective:           JSONFloat(r.Objective),
		WriteRetries:        r.WriteRetries,
		CellsWritten:        r.CellsWritten,
		CellsSkipped:        r.CellsSkipped,
		TilesRefreshed:      r.TilesRefreshed,
		NoiseEpoch:          r.NoiseEpoch,
		EnergyJoules:        JSONFloat(r.EnergyJoules),
	}
}

func fromJSON(j jsonRecord) Record {
	return Record{
		Engine:              j.Engine,
		Problem:             j.Problem,
		Attempt:             j.Attempt,
		Iteration:           j.Iteration,
		Event:               j.Event,
		Status:              j.Status,
		Stop:                j.Stop,
		Mu:                  float64(j.Mu),
		DualityGap:          float64(j.DualityGap),
		PrimalInfeasibility: float64(j.PrimalInfeasibility),
		DualInfeasibility:   float64(j.DualInfeasibility),
		ConeInfeasibility:   float64(j.ConeInfeasibility),
		Theta:               float64(j.Theta),
		Objective:           float64(j.Objective),
		WriteRetries:        j.WriteRetries,
		CellsWritten:        j.CellsWritten,
		CellsSkipped:        j.CellsSkipped,
		TilesRefreshed:      j.TilesRefreshed,
		NoiseEpoch:          j.NoiseEpoch,
		EnergyJoules:        float64(j.EnergyJoules),
	}
}

// Write streams recs as JSON Lines, one record per line.
func Write(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(toJSON(r)); err != nil {
			return err
		}
	}
	return nil
}

// Read parses a JSON Lines stream written by Write (blank lines are
// skipped, so hand-edited golden files stay valid).
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var j jsonRecord
		if err := json.Unmarshal([]byte(text), &j); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, fromJSON(j))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// JSONL is a streaming sink writing one JSON line per record. It is safe
// for concurrent use; the first write error is latched and reported by
// Err (later emits become no-ops so a full disk cannot wedge a solve).
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder //memlp:guardedby mu
	err error         //memlp:guardedby mu
}

// NewJSONL returns a sink streaming to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONL) Emit(rec Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(toJSON(rec))
}

// Err reports the first write error, if any.
func (s *JSONL) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
