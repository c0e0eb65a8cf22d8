package span

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	g := serviceGraph()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !IsGraphJSON(buf.Bytes()) {
		t.Fatal("export not sniffable as a span graph")
	}
	back, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Unit != g.Unit || !reflect.DeepEqual(back.Spans, g.Spans) || !reflect.DeepEqual(back.Edges, g.Edges) {
		t.Fatal("round trip changed the graph")
	}
	var again bytes.Buffer
	if err := WriteJSON(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two writes of one graph differ")
	}
}

func TestReadJSONRejects(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"format":"flight"}`)); err == nil {
		t.Error("foreign format accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`nope`)); err == nil {
		t.Error("garbage accepted")
	}
	if IsGraphJSON([]byte(`{"format":"flight"}`)) || IsGraphJSON([]byte(`nope`)) {
		t.Error("sniffer accepted a non-graph document")
	}
}

func TestWriteJSONEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, &Graph{Unit: "us"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []Span `json:"spans"`
		Edges []Edge `json:"edges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Spans == nil || doc.Edges == nil {
		t.Error("empty graph must export [] not null")
	}
}

// TestChromeTraceShape checks the structural contract Perfetto relies
// on: a traceEvents array, one thread_name metadata record per track in
// pipeline order, and X events whose ts/dur match the spans.
func TestChromeTraceShape(t *testing.T) {
	g := serviceGraph()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, g); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Ts   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var trackNames []string
	xCount := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" {
				t.Errorf("unexpected metadata %q", ev.Name)
			}
			trackNames = append(trackNames, ev.Args["name"])
		case "X":
			xCount++
			if ev.Dur < 0 {
				t.Errorf("negative dur on %q", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	wantTracks := []string{"service", "proc 0", "proc 1", "net"}
	if !reflect.DeepEqual(trackNames, wantTracks) {
		t.Errorf("track order = %v, want %v", trackNames, wantTracks)
	}
	if xCount != len(g.Spans) {
		t.Errorf("%d X events for %d spans", xCount, len(g.Spans))
	}

	var again bytes.Buffer
	if err := WriteChromeTrace(&again, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two chrome exports of one graph differ")
	}
}
