package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestParseDeadline pins the header grammar: absent is "no budget",
// anything that is not a number — NaN included — is an error, and every
// accepted value, however large, becomes a deadline no further than a
// day away (1e13 ms used to overflow time.Duration into the past).
func TestParseDeadline(t *testing.T) {
	const day = 24 * time.Hour
	cases := []struct {
		value      string
		present    bool
		wantErr    bool
		minD, maxD time.Duration // bounds on deadline − now
	}{
		{value: ""},
		{value: "12.5", present: true, minD: 12 * time.Millisecond, maxD: 13 * time.Millisecond},
		{value: "0", present: true, minD: 0, maxD: 0},
		{value: "-5", present: true, minD: -5 * time.Millisecond, maxD: -5 * time.Millisecond},
		{value: "abc", wantErr: true},
		{value: "NaN", wantErr: true},
		{value: "+Inf", present: true, minD: day, maxD: day},
		{value: "1e13", present: true, minD: day, maxD: day},
		{value: "1e300", present: true, minD: day, maxD: day},
		{value: "-1e300", present: true, minD: -day, maxD: -day},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.value != "" {
			h.Set(DeadlineHeader, tc.value)
		}
		before := time.Now()
		got, present, err := ParseDeadline(h)
		after := time.Now()
		if (err != nil) != tc.wantErr {
			t.Errorf("%q: err = %v, want error %v", tc.value, err, tc.wantErr)
			continue
		}
		if present != tc.present {
			t.Errorf("%q: present = %v, want %v", tc.value, present, tc.present)
		}
		if !present {
			continue
		}
		if got.Before(before.Add(tc.minD)) || got.After(after.Add(tc.maxD)) {
			t.Errorf("%q: deadline %v outside [now%+v, now%+v]", tc.value, got.Sub(before), tc.minD, tc.maxD)
		}
	}
}

// TestDeadlineMiddlewareStatus drives the serve-side middleware: a
// malformed budget is the client's error, a spent one is refused, and an
// enormous one is served — not answered 504 as "exhausted".
func TestDeadlineMiddlewareStatus(t *testing.T) {
	h := DeadlineMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); !ok {
			t.Error("budgeted request reached the handler without a context deadline")
		}
		w.WriteHeader(http.StatusOK)
	}), nil)
	for value, want := range map[string]int{
		"NaN":  http.StatusBadRequest,
		"0":    http.StatusGatewayTimeout,
		"1e13": http.StatusOK,
		"+Inf": http.StatusOK,
	} {
		req := httptest.NewRequest(http.MethodGet, "/topk", nil)
		req.Header.Set(DeadlineHeader, value)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Errorf("%s=%s: status %d, want %d", DeadlineHeader, value, rec.Code, want)
		}
	}
}
