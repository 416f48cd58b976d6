package bench

import (
	"fmt"
	"strings"

	"commlat/internal/apps"
)

// Series is one line of a figure: elapsed seconds per thread count.
type Series struct {
	Name    string
	Threads []int
	Seconds []float64
}

// Speedups converts the series to speedup over the given serial time.
func (s Series) Speedups(serial float64) []float64 {
	out := make([]float64, len(s.Seconds))
	for i, sec := range s.Seconds {
		if sec > 0 {
			out[i] = serial / sec
		}
	}
	return out
}

// Figure is a set of series over a common thread axis plus the serial
// baseline time.
type Figure struct {
	Title         string
	SerialSeconds float64
	Series        []Series
}

// Fig reproduces the paper's scalability figure of one app (figure 10
// preflow-push, 11 clustering, 12 Borůvka): run time versus threads, one
// series per reported variant in Table 1's order. The shape the paper
// reports for each is on its catalogue entry.
func Fig(app apps.App, threads []int) (Figure, error) {
	fig := Figure{
		Title:         fmt.Sprintf("Figure %d: %s run time vs threads", app.Figure, app.Title),
		SerialSeconds: sequentialTime(app).Seconds(),
	}
	for _, v := range app.Reported() {
		s := Series{Name: v.Name, Threads: threads}
		for _, th := range threads {
			d, err := solveTime(app, v, th)
			if err != nil {
				return fig, err
			}
			s.Seconds = append(s.Seconds, d.Seconds())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// String renders the figure as a text table of times and speedups.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (serial %.3fs)\n", f.Title, f.SerialSeconds)
	if len(f.Series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s", "threads")
	for _, th := range f.Series[0].Threads {
		fmt.Fprintf(&b, "%10d", th)
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-12s", s.Name+" t")
		for _, sec := range s.Seconds {
			fmt.Fprintf(&b, "%9.3fs", sec)
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "%-12s", s.Name+" x")
		for _, sp := range s.Speedups(f.SerialSeconds) {
			fmt.Fprintf(&b, "%9.2fx", sp)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
