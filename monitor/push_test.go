package monitor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/censor"
	"repro/obs"
)

// push POSTs body to the handler in-process and returns the status and
// the run the push opened.
func push(t *testing.T, h http.Handler, store *Store, body io.Reader) (int, RunInfo) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/results?scenario=pushed", body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	runs := store.Runs()
	if len(runs) == 0 {
		t.Fatalf("push opened no run (status %d: %s)", rec.Code, rec.Body)
	}
	return rec.Code, runs[len(runs)-1]
}

func jsonlLines(results ...censor.Result) string {
	var buf bytes.Buffer
	if err := censor.WriteJSONL(&buf, results); err != nil {
		panic(err)
	}
	return buf.String()
}

// TestPushErrorPaths: a malformed line answers 400, the lines before it
// are ingested, and the run is finalized with its error.
func TestPushErrorPaths(t *testing.T) {
	good := jsonlLines(
		res("Airtel", "dns", "a.com", true),
		res("Airtel", "dns", "b.com", false),
		res("Idea", "http", "c.com", true),
	)
	after := jsonlLines(res("Idea", "http", "d.com", false))
	for _, tc := range []struct {
		name, body, errText string
	}{
		{"truncated last line", good + `{"vantage":"Idea","measurement":"ht`, "unexpected EOF"},
		{"garbage after a valid line", good + "not json\n" + after, "invalid character"},
		{"type error mid-stream", good + `{"vantage":"Idea","measurement":"http","domain":"x.com","blocked":"yes"}` + "\n" + after, "cannot unmarshal string"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := NewStore()
			code, info := push(t, NewHandler(store, nil), store, strings.NewReader(tc.body))
			if code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", code)
			}
			if info.Results != 3 || info.Blocked != 2 {
				t.Errorf("run ingested %d results (%d blocked), want the 3 lines before the bad one", info.Results, info.Blocked)
			}
			if !info.Done || !strings.Contains(info.Err, tc.errText) {
				t.Errorf("run done=%v err=%q, want done with an error mentioning %q", info.Done, info.Err, tc.errText)
			}
			if got := len(store.Results(Query{Run: info.Run})); got != 3 {
				t.Errorf("store retains %d results of the run, want 3", got)
			}
		})
	}
}

// repeatReader yields line over and over, without end.
type repeatReader struct {
	line []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.line[r.off:])
		n += c
		r.off = (r.off + c) % len(r.line)
	}
	return n, nil
}

// TestPushTooLarge: a body past maxPushBytes answers 413, after
// ingesting the lines that fit.
func TestPushTooLarge(t *testing.T) {
	line := fmt.Sprintf(`{"vantage":"Airtel","measurement":"dns","domain":"a.com","blocked":false,"padding":"%s"}`+"\n",
		strings.Repeat("x", 4<<10))
	store := NewStore()
	code, info := push(t, NewHandler(store, nil), store, &repeatReader{line: []byte(line)})
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", code)
	}
	if want := maxPushBytes / len(line); info.Results != want {
		t.Errorf("run ingested %d results, want the %d whole lines within the cap", info.Results, want)
	}
	if !info.Done || !strings.Contains(info.Err, "too large") {
		t.Errorf("run done=%v err=%q, want done with the size error", info.Done, info.Err)
	}
}

// TestPushKeyCap is the regression for unbounded key growth: one small
// push of 10,000 lines with unique vantages used to return 201 and
// preallocate a 512-result ring for each, about 1 GB of live heap.
func TestPushKeyCap(t *testing.T) {
	var body strings.Builder
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&body, `{"vantage":"v%05d","measurement":"dns","domain":"a.com","blocked":false}`+"\n", i)
	}
	reg := obs.NewRegistry()
	store := NewStore(WithTelemetry(reg))
	h := NewHandler(store, nil)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	code, info := push(t, h, store, strings.NewReader(body.String()))
	runtime.GC()
	runtime.ReadMemStats(&after)

	if code != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422", code)
	}
	if info.Results != maxStoreKeys || !info.Done || info.Err == "" {
		t.Errorf("run = %+v, want %d results, done, with the cap error", info, maxStoreKeys)
	}
	st := store.Stats()
	if st.Keys != maxStoreKeys || st.Rejected == 0 {
		t.Errorf("stats = %+v, want %d keys and counted rejections", st, maxStoreKeys)
	}
	if got := reg.Counter("monitor_results_rejected_total").Value(); got != st.Rejected {
		t.Errorf("monitor_results_rejected_total = %d, want %d", got, st.Rejected)
	}
	const bound = 64 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > bound {
		t.Errorf("live heap grew %d MB over the push, want under %d MB", grew>>20, bound>>20)
	}
	runtime.KeepAlive(store)
}

// TestStoreKeyCap: past the cap a new key is refused with ErrTooManyKeys
// and counted, while keys already held keep ingesting.
func TestStoreKeyCap(t *testing.T) {
	store := NewStore(withClock(newFakeClock().Now))
	sink := store.Begin("s", "test")
	for i := 0; i < maxStoreKeys; i++ {
		if err := sink.Write(res(fmt.Sprintf("v%d", i), "dns", "a.com", false)); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	if err := sink.Write(res("new", "dns", "a.com", false)); !errors.Is(err, ErrTooManyKeys) {
		t.Fatalf("Write past the cap = %v, want ErrTooManyKeys", err)
	}
	err := sink.WriteBatch([]censor.Result{
		res("v0", "dns", "b.com", true),
		res("new", "dns", "b.com", true),
		res("v1", "dns", "b.com", true),
	})
	if !errors.Is(err, ErrTooManyKeys) {
		t.Fatalf("WriteBatch past the cap = %v, want ErrTooManyKeys", err)
	}
	if err := sink.Write(res("v1", "dns", "c.com", true)); err != nil {
		t.Fatalf("Write to a held key: %v", err)
	}
	info, _ := store.Run(sink.Run())
	if want := maxStoreKeys + 2; info.Results != want || info.Blocked != 2 {
		t.Errorf("run counts %d results (%d blocked), want %d (2): rejected results must not roll up", info.Results, info.Blocked, want)
	}
	if st := store.Stats(); st.Keys != maxStoreKeys || st.Rejected != 3 || st.Ingested != uint64(maxStoreKeys+2) {
		t.Errorf("stats = %+v, want %d keys, 3 rejected, %d ingested", st, maxStoreKeys, maxStoreKeys+2)
	}
}

// TestStoreKeyCapConcurrent: writers racing to add keys never take the
// store past its cap, and every result is either ingested or rejected.
func TestStoreKeyCapConcurrent(t *testing.T) {
	const writers, perWriter = 4, maxStoreKeys / 2
	store := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink := store.Begin("s", "test")
			for i := 0; i < perWriter; i++ {
				err := sink.Write(res(fmt.Sprintf("w%d-v%d", w, i), "dns", "a.com", false))
				if err != nil && !errors.Is(err, ErrTooManyKeys) {
					t.Errorf("Write: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	st := store.Stats()
	if st.Keys != maxStoreKeys || st.Ingested+st.Rejected != writers*perWriter {
		t.Errorf("stats = %+v, want %d keys and %d results ingested or rejected", st, maxStoreKeys, writers*perWriter)
	}
}

// TestCampaignTriggerBusy: a trigger that finds its job running answers
// 429 at once instead of queueing a request behind the campaign.
func TestCampaignTriggerBusy(t *testing.T) {
	_, sched, srv := newTestService(t)
	trigger := func() *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", nil)
		if err != nil {
			t.Fatalf("POST campaigns: %v", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}

	job := sched.jobs["small"]
	job.mu.Lock()
	resp := trigger()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("trigger while running = %d (Retry-After %q), want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	job.mu.Unlock()

	if resp := trigger(); resp.StatusCode != http.StatusCreated {
		t.Errorf("trigger once idle = %d, want 201", resp.StatusCode)
	}
	// RunOnce still queues rather than refusing.
	if _, err := sched.RunOnce(context.Background(), "small"); err != nil {
		t.Errorf("RunOnce: %v", err)
	}
}
