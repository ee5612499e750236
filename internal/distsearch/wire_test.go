package distsearch

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vec"
)

// fill sets every exported field reachable from v to a non-zero value:
// two-element slices and maps, distinct integers of both signs, and floats
// cycling through NaN, ±Inf and finite values. A field the codec forgets
// then decodes as zero and fails the round trip. Struct fields are filled in
// name order, so reordering a declaration, which moves no wire byte, changes
// no value of the golden frames either.
func fill(t testing.TB, v reflect.Value, seq *int) {
	*seq++
	n := *seq
	switch v.Kind() {
	case reflect.Struct:
		var fields []reflect.StructField
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fields = append(fields, f)
			}
		}
		sort.Slice(fields, func(i, j int) bool { return fields[i].Name < fields[j].Name })
		for _, f := range fields {
			fill(t, v.FieldByIndex(f.Index), seq)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		fill(t, s.Index(0), seq)
		fill(t, s.Index(1), seq)
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, seq)
			fill(t, e, seq)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.String:
		v.SetString(fmt.Sprintf("field-%d", n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n) * -982_451_653)
	case reflect.Uint8:
		v.SetUint(uint64(n))
	case reflect.Uint64:
		v.SetUint(uint64(n) * 0x9e3779b97f4a7c15)
	case reflect.Float32, reflect.Float64:
		v.SetFloat([]float64{math.NaN(), math.Inf(1), math.Inf(-1), float64(n) + 0.25}[n%4])
	default:
		t.Fatalf("fill: no value for %s", v.Type())
	}
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so NaN
// equals itself.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if e := b.MapIndex(k); !e.IsValid() || !sameBits(a.MapIndex(k), e) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a.Interface() == b.Interface()
	}
}

// filled returns a Request and a Response with every field set by fill.
func filled(t testing.TB) (*Request, *Response) {
	seq := 0
	var req Request
	var resp Response
	fill(t, reflect.ValueOf(&req).Elem(), &seq)
	fill(t, reflect.ValueOf(&resp).Elem(), &seq)
	return &req, &resp
}

// TestWireRoundTripComplete: every field of both envelopes, and of every
// struct reachable from them, survives a frame bit for bit. The response
// travels as an OpInfo answer, the one op whose body carries every field; as
// the answer to any other op it loses IDFilter and nothing else.
func TestWireRoundTripComplete(t *testing.T) {
	req, resp := filled(t)

	h, body, err := readFrame(bufio.NewReader(bytes.NewReader(appendRequest(nil, 99, req))), nil)
	var gotReq Request
	if err == nil {
		err = decodeRequest(h.op, body, &gotReq)
	}
	if err != nil || h.id != 99 || !sameBits(reflect.ValueOf(*req), reflect.ValueOf(gotReq)) {
		t.Fatalf("request round trip: err=%v id=%d\n sent %+v\n  got %+v", err, h.id, req, gotReq)
	}

	withoutFilter := *resp
	withoutFilter.IDFilter = nil
	for _, tc := range []struct {
		op   Op
		want *Response
	}{{OpInfo, resp}, {OpStats, &withoutFilter}} {
		h, body, err = readFrame(bufio.NewReader(bytes.NewReader(appendResponse(nil, 7, tc.op, resp, time.Time{}))), nil)
		var gotResp Response
		if err == nil {
			err = decodeResponse(h.op, body, &gotResp)
		}
		if err != nil || h.id != 7 || h.op != tc.op || !sameBits(reflect.ValueOf(*tc.want), reflect.ValueOf(gotResp)) {
			t.Fatalf("op %d response round trip: err=%v header=%+v\n sent %+v\n  got %+v", tc.op, err, h, tc.want, gotResp)
		}
	}
}

// searchExchange is one request and the response that answers it.
type searchExchange struct {
	req  *Request
	resp *Response
}

// searchExchanges returns one OpSample and one OpDeep exchange shaped as the
// coordinator and Node.search build them: a sample asks a low nProbe
// without K and gets one neighbor back, a deep search asks for K of them.
func searchExchanges() [2]searchExchange {
	query := []float32{0.5, -1.25, 3, 0, -0.75, 2.5, 1e-3, -8}
	return [2]searchExchange{
		{&Request{Op: OpSample, Query: query, NProbe: 4, TraceID: 1 << 60},
			&Response{ShardID: 3, Neighbors: []vec.Neighbor{{ID: 811, Score: 0.93}}, Scanned: 40, ServerNanos: 9000,
				Costs: []telemetry.QueryCost{{Cells: 4, CodesExclusive: 40}}}},
		{&Request{Op: OpDeep, Query: query, K: 5, NProbe: 16, TraceID: 1 << 60},
			&Response{ShardID: 3, Neighbors: []vec.Neighbor{{ID: 811, Score: 0.93}, {ID: 12, Score: 0.9},
				{ID: 4096, Score: 0.71}, {ID: 7, Score: 0.5}, {ID: 300001, Score: -0.25}}, Scanned: 160, ServerNanos: 21000,
				Costs: []telemetry.QueryCost{{Cells: 16, CodesExclusive: 160}}}},
	}
}

// TestWireAllocBudgets pins the codec's allocations: encoding into a reused
// buffer allocates nothing, and decoding a search response allocates only
// its result slices (neighbors and the cost entry).
func TestWireAllocBudgets(t *testing.T) {
	for _, ex := range searchExchanges() {
		req, resp := ex.req, ex.resp
		buf := make([]byte, 0, 4096)
		if a := testing.AllocsPerRun(100, func() { buf = appendRequest(buf[:0], 1, req) }); a != 0 {
			t.Errorf("request encode: %v allocs, want 0", a)
		}
		if a := testing.AllocsPerRun(100, func() { buf = appendResponse(buf[:0], 1, req.Op, resp, time.Time{}) }); a != 0 {
			t.Errorf("response encode: %v allocs, want 0", a)
		}
		body := appendResponse(nil, 1, req.Op, resp, time.Time{})[headerSize:]
		a := testing.AllocsPerRun(100, func() {
			var r Response
			if err := decodeResponse(req.Op, body, &r); err != nil {
				t.Fatal(err)
			}
		})
		if a != 2 {
			t.Errorf("%d-neighbor response decode: %v allocs, want 2 (neighbors, costs)", len(resp.Neighbors), a)
		}
	}
}

// TestFilterWordCountBounded: an OpInfo answer whose filter claims more words
// than the body has bytes left fails at the length check, before the words
// are allocated, whether the claim exceeds the bytes left or only the words
// they hold.
func TestFilterWordCountBounded(t *testing.T) {
	for _, words := range []uint64{1 << 40, 12} {
		h, body, err := readFrame(bufio.NewReader(bytes.NewReader(overclaimedFilterFrame(t, words))), nil)
		if err != nil {
			t.Fatalf("%d words: the frame around the claim is damaged: %v", words, err)
		}
		var resp Response
		err = decodeResponse(h.op, body, &resp)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("length %d exceeds the", words)) {
			t.Errorf("claim of %d words: err %v, want the length check to refuse it", words, err)
		}
		if resp.IDFilter != nil {
			t.Errorf("claim of %d words: decoded a filter of %d words", words, len(resp.IDFilter))
		}
	}
}
