package metricstream

import (
	"fmt"
	"io"
	"slices"

	"mcmgpu/internal/report"
	"mcmgpu/internal/stats"
)

// summaryPoint is one sample's span and the DRAM bytes moved over it.
type summaryPoint struct {
	start, end, dramBytes uint64
}

// Summary reads one run's metrics stream (NDJSON or CSV, optionally
// gzipped) and renders its report tables: peak, mean and p95 link
// utilization per GPM, where each sample contributes the largest
// utilization across the GPM's egress links, and a DRAM bandwidth timeline
// bucketed to at most 16 rows. A stream with no samples yields no tables; a
// machine without inter-GPM links yields no link table.
func Summary(r io.Reader) ([]*report.Table, error) {
	sc, err := NewScanner(r, FormatAuto)
	if err != nil {
		return nil, err
	}
	var (
		config, workload string
		points           []summaryPoint
		seq              int
		// gpms lists the GPMs that own links in first-seen order, which is
		// the machine's registration order; util[g][i] is sample i's
		// utilization on GPM gpms[g].
		gpms []int
		util [][]float64
	)
	for sc.Scan() {
		rec := sc.Record()
		if rec.Type != TypeSample {
			continue
		}
		// A CSV sample spans one row per resource, all with the same seq.
		if len(points) == 0 || rec.Seq != seq {
			if len(points) == 0 {
				config, workload = string(rec.Config), string(rec.Workload)
			}
			seq = rec.Seq
			points = append(points, summaryPoint{start: rec.Start, end: rec.End})
			for g := range util {
				util[g] = append(util[g], 0)
			}
		}
		i := len(points) - 1
		for _, res := range rec.Resources {
			switch string(res.Kind) {
			case "link":
				g := slices.Index(gpms, res.GPM)
				if g < 0 {
					g = len(gpms)
					gpms = append(gpms, res.GPM)
					util = append(util, make([]float64, len(points)))
				}
				if res.Util > util[g][i] {
					util[g][i] = res.Util
				}
			case "dram":
				points[i].dramBytes += res.Units
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	var out []*report.Table
	if len(points) == 0 {
		return out, nil
	}
	if len(gpms) > 0 {
		t := report.New(fmt.Sprintf("Link utilization by GPM — %s on %s", workload, config),
			"GPM", "Peak", "Mean", "P95")
		for g, gpm := range gpms {
			xs := util[g]
			t.AddRowF(gpm, stats.Max(xs), stats.Mean(xs), stats.Quantile(stats.Sorted(xs), 0.95))
		}
		t.Note = "per-sample max across the GPM's egress links; interval utilization is clipped to [0,1]"
		out = append(out, t)
	}

	t := report.New(fmt.Sprintf("DRAM bandwidth timeline — %s on %s", workload, config),
		"Cycles", "GB/s")
	per := (len(points) + 15) / 16
	for i := 0; i < len(points); i += per {
		j := min(i+per, len(points))
		var bytes uint64
		for _, p := range points[i:j] {
			bytes += p.dramBytes
		}
		span := points[j-1].end - points[i].start
		rate := 0.0
		if span > 0 {
			rate = float64(bytes) / float64(span)
		}
		t.AddRowF(fmt.Sprintf("%d-%d", points[i].start, points[j-1].end), rate)
	}
	t.Note = "bytes moved at DRAM devices per cycle; 1 byte/cycle = 1 GB/s at the model's 1 GHz clock"
	return append(out, t), nil
}
