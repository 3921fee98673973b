package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4): a # HELP / # TYPE header per family followed by
// one line per child, families and children in sorted order so the output
// is deterministic for a given metric state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	type family struct {
		name, help string
		kind       Kind
		samples    Snapshot
	}
	families := make([]family, 0, len(names))
	for _, name := range names {
		e := r.metrics[name]
		f := family{name: name, help: e.help, kind: e.kind}
		switch {
		case e.counter != nil:
			f.samples = Snapshot{{Name: name, Kind: KindCounter, Value: float64(e.counter.Value())}}
		case e.gauge != nil:
			f.samples = Snapshot{{Name: name, Kind: KindGauge, Value: e.gauge.Value()}}
		case e.hist != nil:
			f.samples = Snapshot{e.hist.sample(name, nil)}
		case e.cvec != nil:
			f.samples = e.cvec.appendSamples(nil, name)
		case e.hvec != nil:
			f.samples = e.hvec.appendSamples(nil, name)
		}
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].less(f.samples[j]) })
		families = append(families, f)
	}
	r.mu.Unlock()

	for _, f := range families {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.samples {
			if err := writeSample(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, s Sample) error {
	switch s.Kind {
	case KindCounter, KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, labelString(s.Labels, nil), formatValue(s.Value))
		return err
	case KindHistogram:
		for _, b := range s.Buckets {
			le := Label{Name: "le", Value: formatUpperBound(b.UpperBound)}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, labelString(s.Labels, &le), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, labelString(s.Labels, nil), formatValue(s.Value)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, labelString(s.Labels, nil), s.Count)
		return err
	}
	return fmt.Errorf("telemetry: cannot export sample of kind %v", s.Kind)
}

// labelString renders {a="x",b="y"}, appending the optional extra label
// (the histogram le), or "" when there are no labels at all.
func labelString(labels []Label, extra *Label) string {
	if len(labels) == 0 && extra == nil {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", l.Name, escapeLabelValue(l.Value))
	}
	if extra != nil {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", extra.Name, escapeLabelValue(extra.Value))
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatUpperBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
