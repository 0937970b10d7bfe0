package core

import (
	"time"

	"anytime/internal/obs"
)

// spanMark captures the start of an obs span: a wall offset from the
// tracer's epoch and a virtual-clock reading. The zero value is what a
// disabled tracer produces, and the record helpers ignore it then — so
// instrumented code paths pay a nil check and nothing else when disabled.
type spanMark struct {
	wall, virt time.Duration
}

// mark opens an engine-wide span (virtual clock = cluster max).
func (e *Engine) mark() spanMark {
	if e.opts.Obs == nil {
		return spanMark{}
	}
	return spanMark{wall: e.opts.Obs.Now(), virt: e.mach.VirtualTime()}
}

// span closes an engine-wide span opened by mark.
func (e *Engine) span(k obs.Kind, m spanMark, value int64) {
	tr := e.opts.Obs
	if tr == nil {
		return
	}
	tr.Record(obs.Span{
		Kind:    k,
		Proc:    -1,
		Step:    int32(e.step),
		Wall:    m.wall,
		WallDur: tr.Now() - m.wall,
		Virt:    m.virt,
		VirtDur: e.mach.VirtualTime() - m.virt,
		Value:   value,
	})
}

// spanProcMark closes a span opened with mark (engine-wide clocks) but tags
// it with a processor — for coordinator-run events about one processor,
// such as crashes and rejoins.
func (e *Engine) spanProcMark(k obs.Kind, pid int, m spanMark, value int64) {
	tr := e.opts.Obs
	if tr == nil {
		return
	}
	tr.Record(obs.Span{
		Kind:    k,
		Proc:    int32(pid),
		Step:    int32(e.step),
		Wall:    m.wall,
		WallDur: tr.Now() - m.wall,
		Virt:    m.virt,
		VirtDur: e.mach.VirtualTime() - m.virt,
		Value:   value,
	})
}

// markProc opens a per-processor span (virtual clock = processor pid's).
// Safe from pid's own Parallel body: each processor owns its clock.
func (e *Engine) markProc(pid int) spanMark {
	if e.opts.Obs == nil {
		return spanMark{}
	}
	return spanMark{wall: e.opts.Obs.Now(), virt: e.mach.ProcTime(pid)}
}

// spanProc closes a per-processor span opened by markProc.
func (e *Engine) spanProc(k obs.Kind, pid int, m spanMark, value int64) {
	tr := e.opts.Obs
	if tr == nil {
		return
	}
	tr.Record(obs.Span{
		Kind:    k,
		Proc:    int32(pid),
		Step:    int32(e.step),
		Wall:    m.wall,
		WallDur: tr.Now() - m.wall,
		Virt:    m.virt,
		VirtDur: e.mach.ProcTime(pid) - m.virt,
		Value:   value,
	})
}
