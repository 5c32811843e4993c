"""SVG renderings of the paper's figures.

Static, dependency-free SVG output for each figure the analyses
regenerate.  Design decisions follow a fixed procedure (form → color by
job → validated palette → mark specs → labels):

* one axis per panel, never dual scales;
* single-series charts use the sequential blue; the only multi-series
  chart (Figure 1's four browsers) uses the validated categorical
  order with a legend AND direct end-labels (two of the four slots sit
  below 3:1 contrast on the light surface, so labels are mandatory
  relief, not decoration);
* Figure 6's three block-rate bands are *ordered*, so they use an
  ordinal one-hue ramp (light→dark blue), not three unrelated hues;
* marks are thin: 2px lines, r≈4 dots, 2px gaps between columns;
  grid and axes are recessive grays; every mark carries an SVG
  ``<title>`` so hovering reveals the datum;
* text wears text tokens (primary/secondary ink), never series color.

The palette is the validated reference set (see the repo's design
notes): categorical #2a78d6 / #1baf7a / #eda100 / #008300 on the
#fcfcfb surface (worst adjacent CVD ΔE 24.2).
"""

from __future__ import annotations

import datetime
import math
from typing import Dict, List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape

from repro.core import analysis, metrics
from repro.core.survey import SurveyResult
from repro.core.validation import ExternalValidationOutcome

# ---------------------------------------------------------------------------
# Palette (validated; see module docstring)
# ---------------------------------------------------------------------------

SURFACE = "#fcfcfb"
TEXT_PRIMARY = "#0b0b0b"
TEXT_SECONDARY = "#52514e"
GRID = "#e5e4e0"
AXIS = "#c9c8c3"
SERIES_BLUE = "#2a78d6"
CATEGORICAL = ["#2a78d6", "#1baf7a", "#eda100", "#008300"]
#: ordinal one-hue ramp for ordered classes (blue 250 / 450 / 650)
ORDINAL_BLUE = ["#86b6ef", "#2a78d6", "#104281"]

_FONT = "font-family='Helvetica, Arial, sans-serif'"


class SvgCanvas:
    """A minimal SVG document builder."""

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self._parts: List[str] = []

    def rect(self, x: float, y: float, w: float, h: float, fill: str,
             tooltip: str = "", rx: float = 0.0) -> None:
        inner = "<title>%s</title>" % escape(tooltip) if tooltip else ""
        self._parts.append(
            "<rect x='%.1f' y='%.1f' width='%.1f' height='%.1f' "
            "rx='%.1f' fill='%s'>%s</rect>" % (x, y, w, h, rx, fill, inner)
        )

    def line(self, x1: float, y1: float, x2: float, y2: float,
             stroke: str, width: float = 1.0, dash: str = "") -> None:
        dash_attr = " stroke-dasharray='%s'" % dash if dash else ""
        self._parts.append(
            "<line x1='%.1f' y1='%.1f' x2='%.1f' y2='%.1f' stroke='%s' "
            "stroke-width='%.1f'%s/>" % (x1, y1, x2, y2, stroke, width,
                                         dash_attr)
        )

    def circle(self, cx: float, cy: float, r: float, fill: str,
               tooltip: str = "") -> None:
        inner = "<title>%s</title>" % escape(tooltip) if tooltip else ""
        self._parts.append(
            "<circle cx='%.1f' cy='%.1f' r='%.1f' fill='%s' "
            "stroke='%s' stroke-width='1'>%s</circle>"
            % (cx, cy, r, fill, SURFACE, inner)
        )

    def polyline(self, points: Sequence[Tuple[float, float]], stroke: str,
                 width: float = 2.0) -> None:
        coords = " ".join("%.1f,%.1f" % (x, y) for x, y in points)
        self._parts.append(
            "<polyline points='%s' fill='none' stroke='%s' "
            "stroke-width='%.1f' stroke-linejoin='round'/>"
            % (coords, stroke, width)
        )

    def text(self, x: float, y: float, content: str,
             size: int = 11, fill: str = TEXT_SECONDARY,
             anchor: str = "start", weight: str = "normal") -> None:
        self._parts.append(
            "<text x='%.1f' y='%.1f' font-size='%d' fill='%s' "
            "text-anchor='%s' font-weight='%s' %s>%s</text>"
            % (x, y, size, fill, anchor, weight, _FONT, escape(content))
        )

    def render(self) -> str:
        return (
            "<svg xmlns='http://www.w3.org/2000/svg' width='%d' "
            "height='%d' viewBox='0 0 %d %d'>"
            "<rect width='%d' height='%d' fill='%s'/>%s</svg>"
            % (self.width, self.height, self.width, self.height,
               self.width, self.height, SURFACE, "".join(self._parts))
        )


class LinearScale:
    """data domain -> pixel range."""

    def __init__(self, domain: Tuple[float, float],
                 pixels: Tuple[float, float]) -> None:
        self.d0, self.d1 = domain
        self.p0, self.p1 = pixels
        self._span = (self.d1 - self.d0) or 1.0

    def __call__(self, value: float) -> float:
        fraction = (value - self.d0) / self._span
        return self.p0 + fraction * (self.p1 - self.p0)

    def ticks(self, count: int = 5) -> List[float]:
        step = _nice_step(self._span / max(1, count))
        first = math.ceil(self.d0 / step) * step
        out = []
        value = first
        while value <= self.d1 + 1e-9:
            out.append(round(value, 10))
            value += step
        return out


class LogScale:
    """log10 scale for strictly positive data."""

    def __init__(self, domain: Tuple[float, float],
                 pixels: Tuple[float, float]) -> None:
        self.d0 = max(domain[0], 0.5)
        self.d1 = max(domain[1], self.d0 * 10)
        self.p0, self.p1 = pixels
        self._l0 = math.log10(self.d0)
        self._l1 = math.log10(self.d1)

    def __call__(self, value: float) -> float:
        value = max(value, self.d0)
        fraction = (math.log10(value) - self._l0) / (
            (self._l1 - self._l0) or 1.0
        )
        return self.p0 + fraction * (self.p1 - self.p0)

    def ticks(self) -> List[float]:
        decades = [
            10 ** e
            for e in range(int(math.floor(self._l0)),
                           int(math.ceil(self._l1)) + 1)
        ]
        # Only ticks inside the domain: an out-of-domain decade would
        # render beyond the plot area.
        return [t for t in decades if self.d0 * 0.999 <= t <= self.d1 * 1.001]


def _nice_step(raw: float) -> float:
    if raw <= 0:
        return 1.0
    magnitude = 10 ** math.floor(math.log10(raw))
    for multiplier in (1, 2, 5, 10):
        if raw <= multiplier * magnitude:
            return multiplier * magnitude
    return 10 * magnitude


_MARGIN = dict(left=62, right=24, top=40, bottom=44)


def _frame(canvas: SvgCanvas, title: str) -> Tuple[float, float, float,
                                                   float]:
    """Title + plot-area bounds (x0, y0, x1, y1)."""
    canvas.text(_MARGIN["left"], 22, title, size=13, fill=TEXT_PRIMARY,
                weight="bold")
    return (
        _MARGIN["left"],
        _MARGIN["top"],
        canvas.width - _MARGIN["right"],
        canvas.height - _MARGIN["bottom"],
    )


def _x_axis(canvas, scale, y, labeler=None, ticks=None):
    ticks = ticks if ticks is not None else scale.ticks()
    for value in ticks:
        x = scale(value)
        canvas.line(x, y, x, y + 4, AXIS)
        label = labeler(value) if labeler else _short(value)
        canvas.text(x, y + 16, label, anchor="middle")
    canvas.line(scale.p0, y, scale.p1, y, AXIS)


def _y_axis(canvas, scale, x0, x1, labeler=None, ticks=None):
    ticks = ticks if ticks is not None else scale.ticks()
    for value in ticks:
        y = scale(value)
        canvas.line(x0, y, x1, y, GRID)
        label = labeler(value) if labeler else _short(value)
        canvas.text(x0 - 6, y + 4, label, anchor="end")


def _short(value: float) -> str:
    if value >= 1_000_000:
        return "%gM" % (value / 1_000_000)
    if value >= 1000:
        return "%gk" % (value / 1000)
    if value == int(value):
        return str(int(value))
    return "%g" % value


def _percent(value: float) -> str:
    return "%d%%" % round(value * 100)


# ---------------------------------------------------------------------------
# Figure builders
# ---------------------------------------------------------------------------

class _LabelPlacer:
    """Greedy anti-collision placement for point labels.

    Keeps the boxes already drawn; a new label that overlaps one is
    nudged upward in 11px steps (a few attempts, then placed anyway —
    an imperfect label beats a missing one).
    """

    def __init__(self) -> None:
        self._boxes: List[Tuple[float, float, float, float]] = []

    def place(self, canvas: SvgCanvas, x: float, y: float, text: str,
              size: int = 9) -> None:
        width = 0.62 * size * len(text)
        height = size + 2.0
        for _ in range(6):
            box = (x, y - height, x + width, y)
            if not any(_overlaps(box, other) for other in self._boxes):
                break
            y -= 11.0
        self._boxes.append((x, y - height, x + width, y))
        canvas.text(x, y, text, size=size, fill=TEXT_PRIMARY)


def _overlaps(a: Tuple[float, float, float, float],
              b: Tuple[float, float, float, float]) -> bool:
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def figure1_svg() -> str:
    """Standards available + browser MLoC over time (two panels)."""
    points = analysis.figure1_browser_evolution()
    canvas = SvgCanvas(680, 484)
    years = sorted({p.year for p in points})
    browsers = sorted({p.browser for p in points})  # fixed order
    colors = {b: CATEGORICAL[i] for i, b in enumerate(browsers)}

    # Panel 1: web standards available (single series -> one hue, no
    # legend box; the title names the series).
    x_scale = LinearScale((years[0], years[-1]), (62, 640))
    top_scale = LinearScale((0, 80), (200, 48))
    canvas.text(62, 22, "Figure 1 - feature families and browser size "
                        "over time", size=13, fill=TEXT_PRIMARY,
                weight="bold")
    canvas.text(62, 40, "Web standards available", size=11)
    _y_axis(canvas, top_scale, 62, 640)
    standards_series = [
        (x_scale(p.year), top_scale(p.web_standards))
        for p in points if p.browser == browsers[0]
    ]
    canvas.polyline(standards_series, SERIES_BLUE)
    for p in points:
        if p.browser != browsers[0]:
            continue
        canvas.circle(x_scale(p.year), top_scale(p.web_standards), 3.5,
                      SERIES_BLUE,
                      tooltip="%d: %d standards" % (p.year,
                                                    p.web_standards))

    # Panel 2: million lines of code, four browsers (categorical).
    low_scale = LinearScale((0, 18), (420, 260))
    canvas.text(62, 252, "Million lines of code", size=11)
    _y_axis(canvas, low_scale, 62, 640)
    for browser in browsers:
        series = sorted(
            (p for p in points if p.browser == browser),
            key=lambda p: p.year,
        )
        color = colors[browser]
        canvas.polyline(
            [(x_scale(p.year), low_scale(p.million_loc)) for p in series],
            color,
        )
        for p in series:
            canvas.circle(
                x_scale(p.year), low_scale(p.million_loc), 3.0, color,
                tooltip="%s %d: %.1f MLoC" % (browser, p.year,
                                              p.million_loc),
            )
        # Direct end-label: mandatory relief for the sub-3:1 slots.
        last = series[-1]
        canvas.text(
            x_scale(last.year) + 6, low_scale(last.million_loc) + 4,
            browser, fill=TEXT_PRIMARY, size=10,
        )
    _x_axis(canvas, x_scale, 424, labeler=lambda v: str(int(v)),
            ticks=[float(y) for y in years])
    # Legend (>=2 series: always present), clear of the axis labels.
    legend_x = 70.0
    for browser in browsers:
        canvas.rect(legend_x, 460, 10, 10, colors[browser], rx=2)
        canvas.text(legend_x + 14, 469, browser, size=10)
        legend_x += 14 + 7 * len(browser) + 18
    return canvas.render()


def figure3_svg(result: SurveyResult) -> str:
    """CDF of standard popularity (single-series step line)."""
    points = analysis.figure3_standard_popularity_cdf(result)
    canvas = SvgCanvas(640, 400)
    x0, y0, x1, y1 = _frame(
        canvas, "Figure 3 - cumulative distribution of standard popularity"
    )
    max_sites = max(sites for sites, _ in points) or 1
    x_scale = LinearScale((0, max_sites), (x0, x1))
    y_scale = LinearScale((0, 1), (y1, y0))
    _y_axis(canvas, y_scale, x0, x1, labeler=_percent,
            ticks=[0, 0.25, 0.5, 0.75, 1.0])
    _x_axis(canvas, x_scale, y1)
    canvas.text((x0 + x1) / 2, canvas.height - 8,
                "Sites using a standard", anchor="middle")
    steps: List[Tuple[float, float]] = []
    previous_fraction = 0.0
    for sites, fraction in points:
        steps.append((x_scale(sites), y_scale(previous_fraction)))
        steps.append((x_scale(sites), y_scale(fraction)))
        previous_fraction = fraction
    steps.append((x1, y_scale(1.0)))
    canvas.polyline(steps, SERIES_BLUE)
    return canvas.render()


_NOTABLE = frozenset(
    ["CSS-OM", "H-CM", "ALS", "E", "SVG", "BE", "PT2", "DOM1", "AJAX",
     "WCR", "TC"]
)


def figure4_svg(result: SurveyResult) -> str:
    """Popularity (log) vs block rate scatter."""
    points = analysis.figure4_popularity_vs_block_rate(result)
    canvas = SvgCanvas(640, 440)
    x0, y0, x1, y1 = _frame(
        canvas, "Figure 4 - standard popularity vs block rate"
    )
    max_sites = max(p.sites for p in points) or 10
    x_scale = LinearScale((0, 1), (x0, x1))
    y_scale = LogScale((1, max_sites), (y1, y0))
    _y_axis(canvas, y_scale, x0, x1, ticks=y_scale.ticks())
    _x_axis(canvas, x_scale, y1, labeler=_percent,
            ticks=[0, 0.25, 0.5, 0.75, 1.0])
    canvas.text((x0 + x1) / 2, canvas.height - 8, "Block rate",
                anchor="middle")
    canvas.text(16, (y0 + y1) / 2, "Sites", size=11)
    labels = _LabelPlacer()
    for p in points:
        rate = p.block_rate if p.block_rate is not None else 0.0
        x, y = x_scale(rate), y_scale(max(1, p.sites))
        canvas.circle(
            x, y, 4, SERIES_BLUE,
            tooltip="%s: %d sites, blocked %s"
            % (p.abbrev, p.sites, _percent(rate)),
        )
        if p.abbrev in _NOTABLE:
            labels.place(canvas, x + 6, y - 5, p.abbrev)
    return canvas.render()


def figure5_svg(result: SurveyResult) -> str:
    """Site fraction vs traffic-weighted fraction with x=y reference."""
    points = analysis.figure5_site_vs_traffic_popularity(result)
    canvas = SvgCanvas(560, 480)
    x0, y0, x1, y1 = _frame(
        canvas, "Figure 5 - sites vs traffic-weighted visits"
    )
    x_scale = LinearScale((0, 1), (x0, x1))
    y_scale = LinearScale((0, 1), (y1, y0))
    _y_axis(canvas, y_scale, x0, x1, labeler=_percent,
            ticks=[0, 0.25, 0.5, 0.75, 1.0])
    _x_axis(canvas, x_scale, y1, labeler=_percent,
            ticks=[0, 0.25, 0.5, 0.75, 1.0])
    canvas.text((x0 + x1) / 2, canvas.height - 8,
                "Portion of all websites", anchor="middle")
    canvas.line(x_scale(0), y_scale(0), x_scale(1), y_scale(1), AXIS,
                dash="4,4")
    labeled = {"DOM4", "DOM-PS", "H-HI", "TC"}
    labels = _LabelPlacer()
    for p in points:
        x = x_scale(p.site_fraction)
        y = y_scale(p.visit_fraction)
        canvas.circle(
            x, y, 4, SERIES_BLUE,
            tooltip="%s: %s of sites, %s of visits"
            % (p.abbrev, _percent(p.site_fraction),
               _percent(p.visit_fraction)),
        )
        if p.abbrev in labeled:
            labels.place(canvas, x + 6, y - 5, p.abbrev)
    return canvas.render()


def figure6_svg(result: SurveyResult) -> str:
    """Introduction date vs popularity, ordinal block-rate bands."""
    points = analysis.figure6_age_vs_popularity(result)
    canvas = SvgCanvas(680, 440)
    x0, y0, x1, y1 = _frame(
        canvas, "Figure 6 - standard introduction date vs popularity"
    )
    dates = [p.introduced.toordinal() for p in points]
    max_sites = max(p.sites for p in points) or 10
    x_scale = LinearScale((min(dates), max(dates)), (x0, x1))
    y_scale = LinearScale((0, max_sites * 1.05), (y1, y0))
    _y_axis(canvas, y_scale, x0, x1)
    year_ticks = [
        datetime.date(year, 1, 1).toordinal()
        for year in range(2005, 2017, 2)
        if min(dates) <= datetime.date(year, 1, 1).toordinal() <= max(dates)
    ]
    _x_axis(canvas, x_scale, y1,
            labeler=lambda v: str(
                datetime.date.fromordinal(int(v)).year),
            ticks=year_ticks)
    canvas.text((x0 + x1) / 2, canvas.height - 8,
                "Standard introduction date", anchor="middle")
    band_order = ["low", "mid", "high"]
    band_color = dict(zip(band_order, ORDINAL_BLUE))
    labels = _LabelPlacer()
    band_label = {
        "low": "block rate < 33%",
        "mid": "33% - 66%",
        "high": "> 66%",
    }
    for p in points:
        x = x_scale(p.introduced.toordinal())
        y = y_scale(p.sites)
        canvas.circle(
            x, y, 4, band_color[p.block_band],
            tooltip="%s (%s): %d sites, %s"
            % (p.abbrev, p.introduced.isoformat(), p.sites,
               band_label[p.block_band]),
        )
        if p.abbrev in ("AJAX", "H-P", "SLC", "V"):
            labels.place(canvas, x + 6, y - 5, p.abbrev)
    legend_x = x0 + 8.0
    for band in band_order:
        canvas.rect(legend_x, canvas.height - 28, 10, 10,
                    band_color[band], rx=2)
        canvas.text(legend_x + 14, canvas.height - 19,
                    band_label[band], size=10)
        legend_x += 14 + 6.2 * len(band_label[band]) + 18
    return canvas.render()


def figure7_svg(result: SurveyResult) -> str:
    """Ad-only vs tracking-only block rates with x=y reference."""
    points = analysis.figure7_ad_vs_tracking_block(result)
    canvas = SvgCanvas(560, 480)
    x0, y0, x1, y1 = _frame(
        canvas, "Figure 7 - ad-blocking vs tracking-blocking block rates"
    )
    x_scale = LinearScale((0, 1), (x0, x1))
    y_scale = LinearScale((0, 1), (y1, y0))
    _y_axis(canvas, y_scale, x0, x1, labeler=_percent,
            ticks=[0, 0.25, 0.5, 0.75, 1.0])
    _x_axis(canvas, x_scale, y1, labeler=_percent,
            ticks=[0, 0.25, 0.5, 0.75, 1.0])
    canvas.text((x0 + x1) / 2, canvas.height - 8, "Ad block rate",
                anchor="middle")
    canvas.line(x_scale(0), y_scale(0), x_scale(1), y_scale(1), AXIS,
                dash="4,4")
    labeled = {"PT2", "UIE", "WCR", "WRTC", "BE", "H-CM"}
    labels = _LabelPlacer()
    for p in points:
        if p.ad_block_rate is None or p.tracking_block_rate is None:
            continue
        x = x_scale(p.ad_block_rate)
        y = y_scale(p.tracking_block_rate)
        radius = 3 + min(3.0, math.log10(max(1, p.sites)))
        canvas.circle(
            x, y, radius, SERIES_BLUE,
            tooltip="%s: ad %s / tracking %s (%d sites)"
            % (p.abbrev, _percent(p.ad_block_rate),
               _percent(p.tracking_block_rate), p.sites),
        )
        if p.abbrev in labeled:
            labels.place(canvas, x + 7, y - 5, p.abbrev)
    return canvas.render()


def figure8_svg(result: SurveyResult) -> str:
    """Site-complexity PDF as a column chart."""
    pdf = analysis.figure8_site_complexity_pdf(result)
    canvas = SvgCanvas(640, 380)
    x0, y0, x1, y1 = _frame(
        canvas, "Figure 8 - number of standards used per site"
    )
    max_count = max(pdf) if pdf else 1
    peak = max(pdf.values()) if pdf else 1.0
    x_scale = LinearScale((-0.5, max_count + 0.5), (x0, x1))
    y_scale = LinearScale((0, peak * 1.1), (y1, y0))
    _y_axis(canvas, y_scale, x0, x1,
            labeler=lambda v: "%.0f%%" % (v * 100))
    _x_axis(canvas, x_scale, y1,
            ticks=[float(t) for t in range(0, max_count + 1, 5)])
    canvas.text((x0 + x1) / 2, canvas.height - 8,
                "Number of standards used", anchor="middle")
    slot = (x1 - x0) / (max_count + 1)
    bar = max(2.0, slot - 2.0)  # 2px surface gap between columns
    for count, fraction in pdf.items():
        x = x_scale(count) - bar / 2
        y = y_scale(fraction)
        canvas.rect(
            x, y, bar, y1 - y, SERIES_BLUE, rx=2,
            tooltip="%d standards: %.1f%% of sites"
            % (count, fraction * 100),
        )
    return canvas.render()


def figure9_svg(outcome: ExternalValidationOutcome) -> str:
    """Manual-vs-automated new-standards histogram."""
    canvas = SvgCanvas(560, 360)
    x0, y0, x1, y1 = _frame(
        canvas, "Figure 9 - new standards seen only in manual sessions"
    )
    histogram = outcome.histogram or {0: 0}
    categories = sorted(histogram)
    peak = max(histogram.values()) or 1
    slot = (x1 - x0) / max(1, len(categories))
    y_scale = LinearScale((0, peak * 1.15), (y1, y0))
    _y_axis(canvas, y_scale, x0, x1)
    canvas.text((x0 + x1) / 2, canvas.height - 8,
                "Number of new standards observed", anchor="middle")
    bar = max(4.0, slot * 0.7)
    for index, category in enumerate(categories):
        count = histogram[category]
        cx = x0 + slot * (index + 0.5)
        y = y_scale(count)
        canvas.rect(
            cx - bar / 2, y, bar, y1 - y, SERIES_BLUE, rx=2,
            tooltip="%d new standards on %d domains" % (category, count),
        )
        canvas.text(cx, y1 + 16, str(category), anchor="middle")
        canvas.text(cx, y - 5, str(count), anchor="middle", size=10,
                    fill=TEXT_PRIMARY)
    canvas.line(x0, y1, x1, y1, AXIS)
    return canvas.render()


def render_all(
    result: SurveyResult,
    out_dir: str,
    external: Optional[ExternalValidationOutcome] = None,
    skipped: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """Write every renderable figure to ``out_dir``; returns paths.

    A figure comparing against a condition the survey did not run
    (Figures 4 and 6 need ``blocking``, Figure 7 the single-extension
    conditions) is skipped, and named with its reason in ``skipped``
    when given; Figure 9 is skipped without an external-validation
    outcome.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    figures = {"figure1": figure1_svg()}
    figures.update(metrics.build_supported({
        "figure3": figure3_svg,
        "figure4": figure4_svg,
        "figure5": figure5_svg,
        "figure6": figure6_svg,
        "figure7": figure7_svg,
        "figure8": figure8_svg,
    }, result, skipped))
    if external is not None:
        figures["figure9"] = figure9_svg(external)
    paths: Dict[str, str] = {}
    for name, svg in figures.items():
        path = os.path.join(out_dir, "%s.svg" % name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(svg)
        paths[name] = path
    return paths
