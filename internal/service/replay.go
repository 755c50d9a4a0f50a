package service

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/workloads"
)

// ErrReplayUnavailable is returned by Calibration when a ground-truth
// replay is requested but no replay source is configured.
var ErrReplayUnavailable = errors.New("service: ground-truth replay not configured")

// Calibration returns the last retune's calibration report, or nil
// before the first retune. With groundTruth set, a replay of the last
// retune's recommendation runs first (building the substrate on first
// use) and its measurements are attached to the returned report, the
// Prometheus replay series, and the retune's session record.
func (s *Service) Calibration(groundTruth bool) (*obs.CalibrationReport, error) {
	s.mu.Lock()
	cal, res, snap, sid := s.calibration, s.lastResult, s.lastSnap, s.lastSessionID
	s.mu.Unlock()
	if cal == nil {
		return nil, nil
	}
	if !groundTruth {
		return cal, nil
	}
	gt, err := s.runReplay(res, snap)
	if err != nil {
		return nil, err
	}
	s.observeReplay(gt)
	// Attach on a copy: the previous report pointer may be mid-marshal
	// in a concurrent handler.
	cp := *cal
	cp.AttachGroundTruth(gt)
	s.mu.Lock()
	if s.calibration == cal { // no retune slipped in between
		s.calibration = &cp
	}
	s.mu.Unlock()
	if ok, err := s.recorder.Amend(sid, func(rec *obs.SessionRecord) { rec.GroundTruth = gt }); err != nil {
		s.warnf("service: session %s: persisting ground truth: %v", sid, err)
	} else if !ok {
		s.logf("service: session %s no longer retained; ground truth not recorded", sid)
	}
	return &cp, nil
}

// groundTruthHook is the post-retune replay step. It is a no-op (and
// allocation-free) unless ReplayEachRetune is configured; failures are
// logged, never fatal to the retune that triggered them.
func (s *Service) groundTruthHook(res *core.Result, snap *workloads.Workload, session *obs.SessionRecord) {
	if !s.opts.ReplayEachRetune {
		return
	}
	gt, err := s.runReplay(res, snap)
	if err != nil {
		s.warnf("service: ground-truth replay: %v", err)
		return
	}
	session.GroundTruth = gt
	if res.Explain != nil && res.Explain.Calibration != nil {
		res.Explain.Calibration.AttachGroundTruth(gt)
	}
	s.observeReplay(gt)
}

// runReplay executes a ground-truth replay of res over the lazily built
// substrate.
func (s *Service) runReplay(res *core.Result, snap *workloads.Workload) (*obs.GroundTruthReport, error) {
	if s.opts.Replay == nil || s.opts.Replay.Build == nil {
		return nil, ErrReplayUnavailable
	}
	if res == nil || snap == nil {
		return nil, errors.New("service: nothing to replay yet")
	}
	s.replayMu.Lock()
	defer s.replayMu.Unlock()
	if s.replayDB == nil {
		db, store, err := s.opts.Replay.Build()
		if err != nil {
			return nil, fmt.Errorf("service: replay substrate: %w", err)
		}
		if db == nil || store == nil {
			return nil, errors.New("service: replay source built no substrate")
		}
		s.replayDB, s.replayStore = db, store
	}
	return replay.Run(s.replayDB, s.replayStore, snap.Queries, res, replay.Options{Trace: s.trace})
}

// observeReplay feeds a completed replay into the metric surfaces.
func (s *Service) observeReplay(gt *obs.GroundTruthReport) {
	s.tunerMetrics.ObserveReplay(gt)
	s.logf("service: ground truth: measured speedup %.2fx (estimated %.2fx), rank correlation %.3f over %d configs",
		gt.SpeedupMeasured, gt.SpeedupEstimated, gt.RankCorrelation, len(gt.Configs))
}
