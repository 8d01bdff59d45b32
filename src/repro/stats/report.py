"""ASCII report rendering: proportional bars and the power breakdown.

``repro run`` prints a run's power breakdown with
:func:`format_breakdown`.  Everything returns strings (callers decide
where to print).
"""

from __future__ import annotations

from typing import Dict


def bar(value: float, scale: float, width: int = 40, char: str = "#") -> str:
    """A proportional bar; ``scale`` is the value mapping to ``width``."""
    if scale <= 0 or width <= 0:
        raise ValueError("scale and width must be positive")
    fill = int(round(min(value / scale, 1.0) * width))
    return char * fill


def format_breakdown(
    fractions: Dict[str, float],
    title: str = "power breakdown",
    width: int = 40,
) -> str:
    """Render a category->fraction dict as labelled bars."""
    lines = [f"{title}:"]
    for name, frac in fractions.items():
        lines.append(f"  {name:<10}{frac:>7.1%}  {bar(frac, 1.0, width)}")
    return "\n".join(lines)
