// Package plotps writes the PostScript plot files of the pipeline's
// plotting processes (#9, #15, #18): [station].ps with the corrected
// accelerogram, [station]f.ps with the Fourier spectra, and [station]r.ps
// with the response spectra.
//
// The legacy chain renders these through gnuplot-style tooling; here a
// small self-contained PostScript generator reproduces the same products —
// real vector plot files with axes, tick labels, and data polylines — so
// the plotting stages keep their "heavy I/O plus formatting" cost profile
// from the paper.
package plotps

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"accelproc/internal/numtext"
)

// Page dimensions in PostScript points (US letter).
const (
	pageWidth  = 612
	pageHeight = 792
)

// Series is one polyline to draw.
type Series struct {
	Label string
	X, Y  []float64
}

// Axes configures one plot panel.
type Axes struct {
	Title  string
	XLabel string
	YLabel string
	XLog   bool // logarithmic x axis
	YLog   bool // logarithmic y axis
}

// Plot is a single panel with any number of series.
type Plot struct {
	Axes   Axes
	Series []Series
	// Markers are vertical reference lines (e.g. the FPL and FSL corner
	// frequencies on a Fourier plot), drawn dashed with a label.
	Markers []Marker
}

// Marker is a labelled vertical line at X.
type Marker struct {
	Label string
	X     float64
}

// grayLevels cycles line shades for successive series (monochrome
// PostScript, like the legacy plots).
var grayLevels = []float64{0.0, 0.45, 0.7}

// WritePage renders a stack of panels onto one PostScript page.  Every
// panel gets an equal share of the page height.  Series with fewer than two
// points, or with non-positive values on logarithmic axes, are skipped
// gracefully (an empty panel still draws its axes).
func WritePage(w io.Writer, docTitle string, plots []Plot) error {
	if len(plots) == 0 {
		return fmt.Errorf("plotps: no panels to draw")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%!PS-Adobe-3.0")
	fmt.Fprintf(bw, "%%%%Title: %s\n", docTitle)
	bw.WriteString("%%Pages: 1\n")
	bw.WriteString("%%EndComments\n")
	fmt.Fprintln(bw, "/L { lineto } def")
	fmt.Fprintln(bw, "/M { moveto } def")
	fmt.Fprintln(bw, "/S { stroke } def")
	fmt.Fprintln(bw, "/F { /Helvetica findfont exch scalefont setfont } def")
	bw.WriteString("%%Page: 1 1\n")

	margin := 54.0
	panelH := (pageHeight - 2*margin) / float64(len(plots))
	for i, p := range plots {
		y0 := pageHeight - margin - float64(i+1)*panelH
		frame := frameRect{
			x:      margin + 36,
			y:      y0 + 28,
			width:  pageWidth - 2*margin - 48,
			height: panelH - 52,
		}
		if err := drawPanel(bw, p, frame); err != nil {
			return fmt.Errorf("plotps: panel %d (%s): %w", i, p.Axes.Title, err)
		}
	}
	fmt.Fprintln(bw, "showpage")
	bw.WriteString("%%EOF\n")
	return bw.Flush()
}

type frameRect struct{ x, y, width, height float64 }

// axisRange holds the data-to-page transform for one axis.
type axisRange struct {
	lo, hi float64
	log    bool
}

func (a axisRange) norm(v float64) (float64, bool) {
	if a.log {
		if v <= 0 {
			return 0, false
		}
		return (math.Log10(v) - math.Log10(a.lo)) / (math.Log10(a.hi) - math.Log10(a.lo)), true
	}
	return (v - a.lo) / (a.hi - a.lo), true
}

// dataRange scans the plot's series for finite (and, on log axes, positive)
// values and returns padded bounds.
func dataRange(p Plot, getY bool) (lo, hi float64, ok bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	log := p.Axes.XLog
	if getY {
		log = p.Axes.YLog
	}
	consider := func(v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		if log && v <= 0 {
			return
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for _, s := range p.Series {
		vals := s.X
		if getY {
			vals = s.Y
		}
		for _, v := range vals {
			consider(v)
		}
	}
	if !getY {
		for _, m := range p.Markers {
			consider(m.X)
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 0, false
	}
	if lo == hi {
		if log {
			lo, hi = lo/2, hi*2
		} else {
			lo, hi = lo-1, hi+1
		}
	}
	if !log {
		pad := 0.05 * (hi - lo)
		lo, hi = lo-pad, hi+pad
	}
	return lo, hi, true
}

func drawPanel(w *bufio.Writer, p Plot, f frameRect) error {
	// Frame.
	fmt.Fprintln(w, "0 setgray 0.8 setlinewidth")
	fmt.Fprintf(w, "%.2f %.2f M %.2f %.2f L %.2f %.2f L %.2f %.2f L closepath S\n",
		f.x, f.y, f.x+f.width, f.y, f.x+f.width, f.y+f.height, f.x, f.y+f.height)

	// Title and axis labels.
	fmt.Fprintln(w, "10 F")
	fmt.Fprintf(w, "%.2f %.2f M (%s) show\n", f.x, f.y+f.height+6, psEscape(p.Axes.Title))
	fmt.Fprintln(w, "8 F")
	fmt.Fprintf(w, "%.2f %.2f M (%s) show\n", f.x+f.width/2-20, f.y-16, psEscape(p.Axes.XLabel))
	fmt.Fprintf(w, "gsave %.2f %.2f translate 90 rotate 0 0 M (%s) show grestore\n",
		f.x-28, f.y+f.height/2-20, psEscape(p.Axes.YLabel))

	xlo, xhi, xok := dataRange(p, false)
	ylo, yhi, yok := dataRange(p, true)
	if !xok || !yok {
		// Nothing plottable; the empty frame is the degenerate product.
		return nil
	}
	xr := axisRange{lo: xlo, hi: xhi, log: p.Axes.XLog}
	yr := axisRange{lo: ylo, hi: yhi, log: p.Axes.YLog}

	drawTicks(w, f, xr, yr)

	// Series polylines.
	for si, s := range p.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("series %q: x/y lengths differ (%d vs %d)", s.Label, len(s.X), len(s.Y))
		}
		gray := grayLevels[si%len(grayLevels)]
		fmt.Fprintf(w, "%.2f setgray 0.5 setlinewidth\n", gray)
		drawPolyline(w, f, xr, yr, s)
		// Legend entry.
		fmt.Fprintf(w, "%.2f %.2f M (%s) show\n",
			f.x+f.width-80, f.y+f.height-10-float64(si)*10, psEscape(s.Label))
	}

	// Markers: dashed vertical lines.
	fmt.Fprintln(w, "0 setgray [3 3] 0 setdash 0.5 setlinewidth")
	for _, m := range p.Markers {
		nx, ok := xr.norm(m.X)
		if !ok || nx < 0 || nx > 1 {
			continue
		}
		px := f.x + nx*f.width
		fmt.Fprintf(w, "%.2f %.2f M %.2f %.2f L S\n", px, f.y, px, f.y+f.height)
		fmt.Fprintf(w, "%.2f %.2f M (%s) show\n", px+2, f.y+f.height-10, psEscape(m.Label))
	}
	fmt.Fprintln(w, "[] 0 setdash")
	return nil
}

// drawPolyline writes one "x y M" or "x y L" line per plotted sample.  The
// lines are appended straight into w's free buffer space, coordinates in
// %.2f form through numtext.AppendFixed2, so a sample costs no fmt call
// and no boxed argument.
func drawPolyline(w *bufio.Writer, f frameRect, xr, yr axisRange, s Series) {
	started := false
	for i := range s.X {
		nx, okx := xr.norm(s.X[i])
		ny, oky := yr.norm(s.Y[i])
		if !okx || !oky {
			if started {
				w.WriteString("S\n")
				started = false
			}
			continue
		}
		px := f.x + clamp01(nx)*f.width
		py := f.y + clamp01(ny)*f.height
		if w.Available() < maxPointLine {
			w.Flush()
		}
		buf := numtext.AppendFixed2(w.AvailableBuffer(), px)
		buf = append(buf, ' ')
		buf = numtext.AppendFixed2(buf, py)
		if !started {
			buf = append(buf, " M\n"...)
			started = true
		} else {
			buf = append(buf, " L\n"...)
		}
		w.Write(buf)
	}
	if started {
		w.WriteString("S\n")
	}
}

// maxPointLine is the room drawPolyline makes before appending a point
// line: coordinates are clamped to the page (or NaN), so
// "xxx.xx yyy.yy L\n" needs 16 bytes.  A longer line would still be
// written whole; its append would just allocate.
const maxPointLine = 64

func drawTicks(w *bufio.Writer, f frameRect, xr, yr axisRange) {
	fmt.Fprintln(w, "0 setgray 0.4 setlinewidth 6 F")
	for _, t := range ticks(xr) {
		n, ok := xr.norm(t)
		if !ok || n < -1e-9 || n > 1+1e-9 {
			continue
		}
		px := f.x + clamp01(n)*f.width
		fmt.Fprintf(w, "%.2f %.2f M %.2f %.2f L S\n", px, f.y, px, f.y+4)
		fmt.Fprintf(w, "%.2f %.2f M (%s) show\n", px-8, f.y-8, formatTick(t))
	}
	for _, t := range ticks(yr) {
		n, ok := yr.norm(t)
		if !ok || n < -1e-9 || n > 1+1e-9 {
			continue
		}
		py := f.y + clamp01(n)*f.height
		fmt.Fprintf(w, "%.2f %.2f M %.2f %.2f L S\n", f.x, py, f.x+4, py)
		fmt.Fprintf(w, "%.2f %.2f M (%s) show\n", f.x-26, py-2, formatTick(t))
	}
}

// ticks picks 4-6 round tick values for an axis.
func ticks(a axisRange) []float64 {
	var out []float64
	if a.log {
		dlo := math.Floor(math.Log10(a.lo))
		dhi := math.Ceil(math.Log10(a.hi))
		for d := dlo; d <= dhi; d++ {
			out = append(out, math.Pow(10, d))
		}
		return out
	}
	span := a.hi - a.lo
	if span <= 0 {
		return nil
	}
	step := math.Pow(10, math.Floor(math.Log10(span/4)))
	for _, m := range []float64{5, 2, 1} {
		if span/(step*m) >= 4 {
			step *= m
			break
		}
	}
	start := math.Ceil(a.lo/step) * step
	for v := start; v <= a.hi+1e-9*span; v += step {
		out = append(out, v)
	}
	return out
}

func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 0.01 && av < 10000:
		return trimZeros(fmt.Sprintf("%.3f", v))
	default:
		return fmt.Sprintf("%.0e", v)
	}
}

func trimZeros(s string) string {
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// psEscape escapes PostScript string delimiters.
func psEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', ')', '\\':
			out = append(out, '\\', s[i])
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
