package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// auditSpans asserts the tracing contract over the fixture's span logs:
// no span was evicted, and every committed transaction's merged
// timeline is complete — root present, no dangling parents, every
// participant the root names contributed at least one span.
func (r *run) auditSpans() []string {
	if r.sc.spanCap < 0 {
		return nil
	}
	var violations []string
	var logs [][]trace.Span
	for _, id := range r.ids {
		sl := r.sites[id].spans
		if d := sl.Dropped(); d > 0 {
			violations = append(violations,
				fmt.Sprintf("site %s: %d spans dropped (SpanCap %d too small for this run)", id, d, r.sc.spanCap))
		}
		logs = append(logs, sl.Spans())
	}
	merged := trace.Merge(logs...)
	r.rep.Spans = len(merged)
	byTID := map[string]trace.Timeline{}
	for _, tl := range trace.BuildTimelines(merged) {
		byTID[tl.TID] = tl
	}
	for _, tid := range r.committed {
		tl, ok := byTID[tid]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("txn %s committed but left no spans", tid))
			continue
		}
		if !tl.Complete {
			detail := fmt.Sprintf("missing sites %v, dangling parents %v", tl.MissingSites, tl.MissingParents)
			if tl.MissingQuorum {
				detail += ", accept quorum not visible"
			}
			violations = append(violations,
				fmt.Sprintf("txn %s committed with an incomplete timeline (%s)", tid, detail))
		}
	}
	return violations
}

// collectBlockedSeconds folds every site's item.blocked.seconds sums
// into the per-cause roll-up the reports expose.  Callers must run
// Cluster.SyncBlockedAccounting first so still-open intervals count.
func collectBlockedSeconds(into map[string]float64, regs ...*metrics.Registry) {
	for _, reg := range regs {
		for _, pt := range reg.Snapshot().Points {
			if pt.Name != "item.blocked.seconds" {
				continue
			}
			cause := "unknown"
			for _, l := range pt.Labels {
				if l.Key == "cause" {
					cause = l.Value
				}
			}
			into[cause] += pt.Sum
		}
	}
}

// dumpTraceArtifacts writes per-site span dumps (polytrace's input
// format) and the rendered merged timelines into the data dir, which a
// failed run leaves on disk for inspection.
func (r *run) dumpTraceArtifacts() {
	if r.sc.spanCap < 0 {
		return
	}
	var logs [][]trace.Span
	for _, id := range r.ids {
		spans := r.sites[id].spans.Spans()
		logs = append(logs, spans)
		raw, err := json.Marshal(spans)
		if err != nil {
			continue
		}
		path := filepath.Join(r.dir, "span-"+string(id)+".json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			r.logf("write %s: %v", path, err)
		}
	}
	tls := trace.BuildTimelines(trace.Merge(logs...))
	path := filepath.Join(r.dir, "timelines.txt")
	if err := os.WriteFile(path, []byte(trace.RenderTimelines(tls)+"\n"), 0o644); err != nil {
		r.logf("write %s: %v", path, err)
	}
	r.logf("trace artifacts in %s (inspect with: polytrace %s)",
		r.dir, filepath.Join(r.dir, "span-*.json"))
}
