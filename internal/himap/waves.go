package himap

import (
	"fmt"

	"himap/internal/par"
	"himap/internal/route"
)

// routeNet routes every sink of one pending net, in order, committing
// paths into the session's occupancy as it goes. sc selects an explicit
// search scratch (wave routing); nil uses the session's own.
func (l *layout) routeNet(ses *route.Session, sc *route.Scratch, p *pendingNet) error {
	for si := p.sink0; si < p.sink1; si++ {
		s := &l.sinkBuf[si]
		targets := l.tgtBuf[s.tgt0:s.tgt1]
		var path route.Path
		var err error
		if sc != nil {
			path, _, err = ses.RouteSinkIn(sc, p.cn.net, targets)
		} else {
			path, _, err = ses.RouteSink(p.cn.net, targets)
		}
		if err != nil {
			return fmt.Errorf("net %s -> %s: %w", s.fromName, s.toName, err)
		}
		s.meta.Path = path
		p.cn.Sinks = append(p.cn.Sinks, s.meta)
	}
	return nil
}

// routePending routes the class's pending nets: sequentially at
// workers <= 1 (the historical flow), otherwise in waves of provably
// independent nets. Waves require wrapped occupancy (so a cycle window
// is a complete footprint) and II <= 64 (one mask word).
func (l *layout) routePending(ses *route.Session, pend []pendingNet) error {
	if l.workers > 1 && ses.G.Wrap && l.iib <= 64 {
		return l.routeWaves(ses, pend)
	}
	for i := range pend {
		if err := l.routeNet(ses, nil, &pend[i]); err != nil {
			return err
		}
	}
	return nil
}

// cycleMask is the wrapped-cycle footprint of the real-cycle window
// [lo, hi] as a bitmask; callers guarantee ii <= 64.
//
//himap:noalloc
func cycleMask(lo, hi, ii int) uint64 {
	if hi-lo+1 >= ii {
		return ^uint64(0) >> (64 - uint(ii))
	}
	var m uint64
	for t := lo; t <= hi; t++ {
		m |= 1 << uint(((t%ii)+ii)%ii)
	}
	return m
}

// routeWaves routes maximal prefixes of pairwise cycle-disjoint nets
// concurrently. Disjoint wrapped-cycle windows mean disjoint occupancy
// reads and writes, so the committed paths — and every later search —
// are bit-identical to the sequential order. On failure the sequential
// state is reproduced: the first failing net (in canonical order) keeps
// its earlier sinks committed, and every net after it in the wave is
// released as if it had never routed.
func (l *layout) routeWaves(ses *route.Session, pend []pendingNet) error {
	if l.waveScratch == nil {
		l.waveScratch = make([]*route.Scratch, l.workers)
		for i := range l.waveScratch {
			l.waveScratch[i] = &route.Scratch{}
		}
	}
	errs := make([]error, l.workers)
	for base := 0; base < len(pend); {
		wave := 1
		used := cycleMask(pend[base].lo, pend[base].hi, l.iib)
		for base+wave < len(pend) && wave < l.workers {
			m := cycleMask(pend[base+wave].lo, pend[base+wave].hi, l.iib)
			if used&m != 0 {
				break
			}
			used |= m
			wave++
		}
		if wave == 1 {
			if err := l.routeNet(ses, nil, &pend[base]); err != nil {
				return err
			}
			base++
			continue
		}
		par.ForEach(wave, wave, func(k int) {
			errs[k] = l.routeNet(ses, l.waveScratch[k], &pend[base+k])
		})
		for k := 0; k < wave; k++ {
			if errs[k] != nil {
				for j := k + 1; j < wave; j++ {
					ses.Release(pend[base+j].cn.net)
					pend[base+j].cn.Sinks = pend[base+j].cn.Sinks[:0]
				}
				return errs[k]
			}
		}
		base += wave
	}
	return nil
}
