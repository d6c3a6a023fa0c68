package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"rwsync/internal/harness"
	"rwsync/internal/stats"
)

// validateReportFile checks a -json report (a BENCH_*.json record or
// the CI bench-smoke emission) against the versioned schema.  The
// point is to fail loudly on drift: an unknown schema_version, a
// field the current schema doesn't know, or an internally
// inconsistent histogram all mean some producer and consumer of
// benchmark records disagree, and the disagreement should break the
// build rather than silently corrupt the perf trajectory.
func validateReportFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return validateReport(raw)
}

func validateReport(raw []byte) error {
	// Version gate first, against a loose decode, so a report from a
	// future schema is rejected as "unknown version" rather than as a
	// confusing unknown-field error.
	var versioned struct {
		SchemaVersion *int `json:"schema_version"`
	}
	if err := json.Unmarshal(raw, &versioned); err != nil {
		return fmt.Errorf("not a JSON report: %w", err)
	}
	if versioned.SchemaVersion == nil {
		return fmt.Errorf("missing schema_version (pre-versioning report?); current is %d", schemaVersion)
	}
	if *versioned.SchemaVersion != schemaVersion {
		return fmt.Errorf("unknown schema_version %d (this build understands %d)",
			*versioned.SchemaVersion, schemaVersion)
	}

	// Strict structural decode: any field the schema doesn't declare
	// is drift.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var rep report
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("schema drift: %w", err)
	}

	if rep.GOMAXPROCS <= 0 || rep.NumCPU <= 0 {
		return fmt.Errorf("run metadata missing (gomaxprocs=%d numcpu=%d)", rep.GOMAXPROCS, rep.NumCPU)
	}
	if len(rep.Throughput) == 0 && len(rep.Priority) == 0 &&
		len(rep.Oversubscribed) == 0 && len(rep.Scenarios) == 0 {
		return fmt.Errorf("report carries no measurements")
	}
	for _, p := range rep.Throughput {
		if p.Lock == "" || p.Workers <= 0 || p.OpsPerSec <= 0 {
			return fmt.Errorf("bad throughput point %+v", p)
		}
	}
	for _, p := range rep.Oversubscribed {
		if p.Lock == "" || p.Workers <= 0 || p.OpsPerSec <= 0 {
			return fmt.Errorf("bad oversubscribed point %+v", p)
		}
	}
	for _, p := range rep.Priority {
		if p.Lock == "" {
			return fmt.Errorf("bad priority point %+v", p)
		}
	}
	for _, sr := range rep.Scenarios {
		if err := validateScenarioResult(sr); err != nil {
			return err
		}
	}
	return nil
}

func validateScenarioResult(sr *harness.ScenarioResult) error {
	if sr == nil || sr.Scenario.Name == "" {
		return fmt.Errorf("scenario result without a name")
	}
	if len(sr.Points) == 0 {
		return fmt.Errorf("scenario %s: no points", sr.Scenario.Name)
	}
	if sr.GOMAXPROCS <= 0 {
		return fmt.Errorf("scenario %s: missing gomaxprocs", sr.Scenario.Name)
	}
	sim := sr.Scenario.Sim != nil
	sharded := len(sr.Scenario.Stripes) > 0
	for i, p := range sr.Points {
		if sim {
			if p.System == "" || p.ReaderRMR == nil || p.WriterRMR == nil {
				return fmt.Errorf("scenario %s point %d: incomplete sim point", sr.Scenario.Name, i)
			}
			if p.Counters != nil {
				return fmt.Errorf("scenario %s point %d: counters on a simulator point", sr.Scenario.Name, i)
			}
			continue
		}
		if p.Lock == "" || p.Workers <= 0 || p.OpsPerSec <= 0 {
			return fmt.Errorf("scenario %s point %d: incomplete native point (%+v)", sr.Scenario.Name, i, p)
		}
		// Sharded bookkeeping (schema_version 2, additive): a scenario
		// that sweeps a stripe axis must carry the grid size and the
		// measured footprint on every point; a flat scenario must not
		// carry either — a stray stripes column would mean some producer
		// routed a flat sweep through the sharded runner.
		if sharded {
			if p.Stripes <= 0 {
				return fmt.Errorf("scenario %s point %d: sharded point without a stripe count", sr.Scenario.Name, i)
			}
			if p.BytesPerLock <= 0 {
				return fmt.Errorf("scenario %s point %d: sharded point without bytes_per_lock", sr.Scenario.Name, i)
			}
			if p.HotReadOps < 0 || p.HotReadOps > p.ReadOps {
				return fmt.Errorf("scenario %s point %d: hot_read_ops %d outside [0, read_ops=%d]",
					sr.Scenario.Name, i, p.HotReadOps, p.ReadOps)
			}
		} else if p.Stripes != 0 || p.ZipfS != 0 || p.BytesPerLock != 0 || p.HotReadOps != 0 {
			return fmt.Errorf("scenario %s point %d: sharded columns without a stripe axis", sr.Scenario.Name, i)
		}
		// Deadline bookkeeping: shed counts exist exactly when the
		// scenario ran with a write deadline, and the rate must agree
		// with the counts it summarizes.
		if sr.Scenario.WriteDeadlineUs > 0 {
			if p.ShedRate < 0 || p.ShedRate > 1 {
				return fmt.Errorf("scenario %s point %d: shed_rate %v outside [0,1]", sr.Scenario.Name, i, p.ShedRate)
			}
			if p.WriteOps+p.ShedOps <= 0 {
				return fmt.Errorf("scenario %s point %d: deadline run with no write attempts", sr.Scenario.Name, i)
			}
		} else if p.ShedOps != 0 || p.ShedRate != 0 {
			return fmt.Errorf("scenario %s point %d: shed counts without a write deadline", sr.Scenario.Name, i)
		}
		// Epoch reclamation bookkeeping: retained-memory counters exist
		// only on epoch-wrapped points, and only a versioned-datum run
		// (VersionBytes > 0) retires anything; the counts must be
		// internally consistent — nothing is reclaimed that was never
		// retired, the high-water marks cover the unreclaimed residue,
		// and retiring without ever paying a grace wait would mean
		// versions were freed with readers possibly still inside them.
		if p.RetiredVersions < 0 || p.ReclaimedVersions < 0 ||
			p.ReclaimedVersions > p.RetiredVersions {
			return fmt.Errorf("scenario %s point %d: reclaimed %d of %d retired versions",
				sr.Scenario.Name, i, p.ReclaimedVersions, p.RetiredVersions)
		}
		if p.RetainedVersionsMax < p.RetiredVersions-p.ReclaimedVersions {
			return fmt.Errorf("scenario %s point %d: retained_versions_max %d below unreclaimed residue %d",
				sr.Scenario.Name, i, p.RetainedVersionsMax, p.RetiredVersions-p.ReclaimedVersions)
		}
		if p.RetiredVersions > 0 && (p.GraceWaits <= 0 || p.EpochAdvances <= 0) {
			return fmt.Errorf("scenario %s point %d: %d versions retired without grace waits (grace=%d advances=%d)",
				sr.Scenario.Name, i, p.RetiredVersions, p.GraceWaits, p.EpochAdvances)
		}
		if sr.Scenario.VersionBytes <= 0 &&
			(p.RetiredVersions != 0 || p.ReclaimedVersions != 0 ||
				p.RetainedVersionsMax != 0 || p.RetainedBytesMax != 0) {
			return fmt.Errorf("scenario %s point %d: retained-memory counters without version_bytes",
				sr.Scenario.Name, i)
		}
		// Counter bookkeeping (additive, schema_version 2): the lock's
		// LockStats snapshot exists exactly when the run was
		// instrumented (-metrics, recorded as the result's metrics
		// bit).  A recorded block must pass the library's own quiescent
		// coherence check, and — when the row is inside the stats seam
		// at all (any acquire or shed counted) — the lock-level passage
		// counts must tie to the workload's op counts: every completed
		// op was exactly one completed passage, every deadline shed one
		// context shed.  On epoch rows the reclamation counters must
		// agree with the point's own epoch columns (the same run seen
		// through rwlock.EpochStatsOf) — two bookkeepers of one
		// history.
		if sr.Metrics && p.Counters == nil {
			return fmt.Errorf("scenario %s point %d: metrics run without counters", sr.Scenario.Name, i)
		}
		if !sr.Metrics && p.Counters != nil {
			return fmt.Errorf("scenario %s point %d: counters without a metrics run", sr.Scenario.Name, i)
		}
		if c := p.Counters; c != nil {
			if err := c.CheckCoherence(); err != nil {
				return fmt.Errorf("scenario %s point %d: %w", sr.Scenario.Name, i, err)
			}
			if c.ReadAcquires > 0 || c.WriteAcquires > 0 || c.CtxSheds > 0 {
				if int64(c.ReadAcquires) != p.ReadOps {
					return fmt.Errorf("scenario %s point %d: %d read acquires for %d read ops",
						sr.Scenario.Name, i, c.ReadAcquires, p.ReadOps)
				}
				if int64(c.WriteAcquires) != p.WriteOps {
					return fmt.Errorf("scenario %s point %d: %d write acquires for %d write ops",
						sr.Scenario.Name, i, c.WriteAcquires, p.WriteOps)
				}
				if int64(c.CtxSheds) != p.ShedOps {
					return fmt.Errorf("scenario %s point %d: %d context sheds for %d shed ops",
						sr.Scenario.Name, i, c.CtxSheds, p.ShedOps)
				}
				if p.RetiredVersions > 0 {
					if int64(c.RetiredVersions) != p.RetiredVersions ||
						int64(c.ReclaimedVersions) != p.ReclaimedVersions {
						return fmt.Errorf("scenario %s point %d: counter reclamation %d/%d disagrees with epoch columns %d/%d",
							sr.Scenario.Name, i, c.RetiredVersions, c.ReclaimedVersions,
							p.RetiredVersions, p.ReclaimedVersions)
					}
				}
			}
		}
		for name, h := range map[string]*stats.HistSnapshot{
			"read_wait_ns": p.ReadWait, "read_hold_ns": p.ReadHold, "read_total_ns": p.ReadTotal,
			"write_wait_ns": p.WriteWait, "write_hold_ns": p.WriteHold, "write_total_ns": p.WriteTotal,
			"age_ns": p.Age, "batch_size": p.BatchSize,
		} {
			if err := h.Validate(); err != nil {
				return fmt.Errorf("scenario %s point %d %s: %w", sr.Scenario.Name, i, name, err)
			}
		}
		// An absent histogram (nil) is legitimate — a tiny -quick run
		// can sample zero ops of a class — so only presence is
		// validated, not existence.
	}
	return nil
}
