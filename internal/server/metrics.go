package server

import (
	"net/http"
	"sort"

	"incbubbles/internal/telemetry"
)

// handleMetrics is the Prometheus scrape endpoint: every tenant's full
// metric registry folded into one exposition page, each series labeled
// with its tenant, plus the scrape-time synthesized series (degradation
// ladder state, last-checkpoint age, the span ring's drop counter). The
// snapshots read each tenant's registry through its own atomics, so a
// scrape never blocks ingestion.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.RUnlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })

	pw := telemetry.NewPromWriter()
	for _, t := range ts {
		label := telemetry.Label{Name: "tenant", Value: t.name}
		pw.AddSnapshot(t.sink.Metrics.Snapshot(), label)

		// Degradation ladder: one gauge per tenant, 0 healthy / 1 degraded,
		// with the rung's reason code as a label so a ladder transition is
		// a label flip, not a new series name.
		reason, v := "healthy", 0.0
		if d := t.degrade.Load(); d != nil {
			reason, v = d.Reason, 1.0
		}
		pw.AddGaugeSample(telemetry.MetricServerLadderState, v,
			label, telemetry.Label{Name: "reason", Value: reason})
		pw.AddGaugeSample(telemetry.MetricServerCheckpointAge, t.checkpointAge(), label)

		// Span-ring overflow: nonzero means the ring was sized below the
		// tenant's span rate — the one signal a bounded buffer must not
		// lose. Dropped() is nil-safe, so a trace-disabled tenant reports 0.
		pw.AddCounterSample(telemetry.MetricTraceSpansDropped, t.tracer.Dropped(), label)
	}
	pw.WriteResponse(w)
}
