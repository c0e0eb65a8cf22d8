package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// GraphFormat identifies a span-graph JSON export; cmd/tracedump and
// GET /debug/spans stamp it so consumers can sniff the document kind (a
// flight dump is stamped "flight", a simulator trace not at all).
const GraphFormat = "span-graph"

// graphJSON is the export envelope.
type graphJSON struct {
	Format  string `json:"format"`
	Unit    string `json:"unit"`
	Dropped uint64 `json:"dropped"`
	Spans   []Span `json:"spans"`
	Edges   []Edge `json:"edges"`
}

// WriteJSON writes the graph as indented, deterministic JSON: spans in
// id order, edges sorted, fixed field order. Two writes of equal graphs
// are byte-identical.
func WriteJSON(w io.Writer, g *Graph) error {
	doc := graphJSON{Format: GraphFormat, Unit: g.Unit, Dropped: g.Dropped,
		Spans: g.Spans, Edges: g.Edges}
	if doc.Spans == nil {
		doc.Spans = []Span{}
	}
	if doc.Edges == nil {
		doc.Edges = []Edge{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadJSON parses a span-graph export.
func ReadJSON(r io.Reader) (*Graph, error) {
	var doc graphJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("span: %w", err)
	}
	if doc.Format != GraphFormat {
		return nil, fmt.Errorf("span: format %q is not %q", doc.Format, GraphFormat)
	}
	return &Graph{Unit: doc.Unit, Dropped: doc.Dropped, Spans: doc.Spans, Edges: doc.Edges}, nil
}

// IsGraphJSON sniffs the format stamp without decoding the whole
// document.
func IsGraphJSON(raw []byte) bool {
	var probe struct {
		Format string `json:"format"`
	}
	return json.Unmarshal(raw, &probe) == nil && probe.Format == GraphFormat
}

// chromeMeta is a trace-event metadata record (names a thread/track).
type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// chromeSpan is one "X" (complete) trace event.
type chromeSpan struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeDoc is the JSON-object form of the trace-event format.
type chromeDoc struct {
	TraceEvents     []any  `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// trackOrder ranks tracks for the Chrome timeline: the service pipeline
// on top, processors in id order below it, the network track last.
func trackOrder(track string) (int, int) {
	switch {
	case track == ServiceTrack:
		return 0, 0
	case strings.HasPrefix(track, "proc "):
		if n, err := strconv.Atoi(track[len("proc "):]); err == nil {
			return 1, n
		}
		return 1, 1 << 30
	case track == NetTrack:
		return 3, 0
	default:
		return 2, 0
	}
}

// WriteChromeTrace writes the graph in Chrome trace-event JSON (the
// object form), loadable in Perfetto or chrome://tracing: one named
// thread per track, each span a complete ("X") event with its txn and
// detail in args. Timestamps map 1:1 from the graph's unit to the
// format's microseconds — sub-unit precision does not exist, so the
// timeline's "us" reads as ticks/events for non-live graphs. The output
// is deterministic for a deterministic graph.
func WriteChromeTrace(w io.Writer, g *Graph) error {
	tracks := map[string]bool{}
	for i := range g.Spans {
		tracks[g.Spans[i].Track] = true
	}
	names := make([]string, 0, len(tracks))
	for t := range tracks {
		names = append(names, t)
	}
	sort.Slice(names, func(i, j int) bool {
		gi, ni := trackOrder(names[i])
		gj, nj := trackOrder(names[j])
		if gi != gj {
			return gi < gj
		}
		if ni != nj {
			return ni < nj
		}
		return names[i] < names[j]
	})
	tid := make(map[string]int, len(names))
	doc := chromeDoc{TraceEvents: []any{}, DisplayTimeUnit: "ms"}
	for i, t := range names {
		tid[t] = i
		doc.TraceEvents = append(doc.TraceEvents, chromeMeta{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: i,
			Args: map[string]string{"name": t},
		})
	}
	for i := range g.Spans {
		s := &g.Spans[i]
		ev := chromeSpan{
			Name: s.Name, Cat: string(s.Kind), Ph: "X",
			Pid: 0, Tid: tid[s.Track], Ts: s.Start, Dur: s.End - s.Start,
		}
		args := map[string]string{}
		if s.Txn != "" {
			args["txn"] = s.Txn
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		if s.Kind == KindLink {
			args["link"] = strconv.Itoa(s.From) + "->" + strconv.Itoa(s.To)
		}
		if len(args) > 0 {
			ev.Args = args
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
