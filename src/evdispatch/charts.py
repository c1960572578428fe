"""Minimal deterministic SVG charts: plain XML, no external assets."""

from __future__ import annotations

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 720, 360
_ML, _MR, _MT, _MB = 64, 16, 34, 44


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _label(v: float) -> str:
    """A value caption to 3 decimals, rounded to 9 first, so a value on a
    half prints the same digits whichever way its last bit falls."""
    return f"{round(v, 9):.3f}"


def _scale(vals_min: float, vals_max: float, span: float, offset: float):
    lo, hi = vals_min, vals_max
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    def to_px(v: float) -> float:
        return offset + (v - lo) / (hi - lo) * span
    return lo, hi, to_px


def _frame(title: str, y_label: str, body: list[str]) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<text x="14" y="{_H / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_H / 2:.0f})">{y_label}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def line_chart(series: list[tuple[str, list[float]]], *, title: str, y_label: str) -> str:
    """Overlayed step-index line chart; one polyline per labelled series."""
    n = max((len(vals) for _, vals in series), default=2)
    flat = [v for _, vals in series for v in vals]
    lo, hi, to_y = _scale(min(flat, default=0.0), max(flat, default=1.0), -(_H - _MT - _MB), _H - _MB)
    x_span = _W - _ML - _MR

    def to_x(i: int) -> float:
        return _ML + (i / max(n - 1, 1)) * x_span

    body = [
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for k in range(5):
        v = lo + (hi - lo) * k / 4
        y = to_y(v)
        body.append(f'<line x1="{_ML - 4}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" stroke="black"/>')
        body.append(f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" text-anchor="end">{_label(v)}</text>')
    for i in range(0, n, max(1, n // 8)):
        x = to_x(i)
        body.append(f'<line x1="{_fmt(x)}" y1="{_H - _MB}" x2="{_fmt(x)}" y2="{_H - _MB + 4}" stroke="black"/>')
        body.append(f'<text x="{_fmt(x)}" y="{_H - _MB + 16}" text-anchor="middle">{i}</text>')
    for idx, (label, vals) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{_fmt(to_x(i))},{_fmt(to_y(v))}" for i, v in enumerate(vals))
        body.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        body.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 14 * idx + 10}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    return _frame(title, y_label, body)


def bar_chart(labels: list[str], values: list[float | None], *, title: str, y_label: str) -> str:
    """Single-series bar chart with value captions; a None value gets its
    label but no bar or caption."""
    known = [v for v in values if v is not None]
    lo = min(0.0, min(known, default=0.0))
    hi = max(0.0, max(known, default=1.0))
    lo, hi, to_y = _scale(lo, hi, -(_H - _MT - _MB), _H - _MB)
    n = max(len(values), 1)
    slot = (_W - _ML - _MR) / n
    body = [
        f'<line x1="{_ML}" y1="{_fmt(to_y(0.0))}" x2="{_W - _MR}" y2="{_fmt(to_y(0.0))}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for k in range(5):
        v = lo + (hi - lo) * k / 4
        y = to_y(v)
        body.append(f'<line x1="{_ML - 4}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" stroke="black"/>')
        body.append(f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" text-anchor="end">{_label(v)}</text>')
    for i, (label, v) in enumerate(zip(labels, values)):
        x = _ML + slot * i + slot * 0.2
        w = slot * 0.6
        label_text = f'<text x="{_fmt(x + w / 2)}" y="{_H - _MB + 16}" text-anchor="middle">{label}</text>'
        if v is None:
            body.append(label_text)
            continue
        y0, y1 = to_y(0.0), to_y(v)
        top, height = (y1, y0 - y1) if v >= 0 else (y0, y1 - y0)
        color = _PALETTE[i % len(_PALETTE)]
        body.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(top)}" width="{_fmt(w)}" height="{_fmt(max(height, 0.5))}" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
        body.append(label_text)
        body.append(
            f'<text x="{_fmt(x + w / 2)}" y="{_fmt(top - 4)}" text-anchor="middle">{_label(v)}</text>'
        )
    return _frame(title, y_label, body)
