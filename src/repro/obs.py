"""Counters and Prometheus text exposition behind the gateway ``/metrics``.

A metric *family* is ``(name, type, help, samples)`` where ``samples``
is a list of ``(labels-or-None, value)``.  :func:`render_prometheus`
emits the Prometheus text exposition format (version 0.0.4): one
``# HELP`` and ``# TYPE`` comment per family followed by its sample
lines.  Only the subset the gateway needs is implemented -- counters
and gauges, label escaping, no timestamps -- but the output parses with
any Prometheus scraper (and with the little parser in
``tests/gateway``).

:class:`Counters` is the one thread-safe counter mechanism the
subsystems share: the trace engine, the explorer, the gateway client
and the gateway edge each own one and hand its :meth:`Counters.families`
to the scrape.  This module imports only the standard library, so any
layer can use it without an import cycle.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

MetricFamily = Tuple[str, str, str, Sequence[Tuple[Optional[Dict], float]]]


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(families: Iterable[MetricFamily]) -> str:
    """Render metric families as Prometheus text exposition."""
    lines: List[str] = []
    for name, mtype, help_text, samples in families:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        for labels, value in samples:
            if labels:
                rendered = ",".join(
                    f'{key}="{_escape_label_value(str(val))}"'
                    for key, val in sorted(labels.items())
                )
                lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


class Counters:
    """A fixed set of named, monotonically increasing counters.

    Args:
        prefix: Family-name prefix; counter ``name`` exports as
            ``{prefix}_{name}_total``.
        help: ``{name: help text}``, in export order.  The names are
            fixed here; incrementing any other name is a ``KeyError``.
        labels: ``{name: label names}`` for the labelled counters;
            a counter absent here takes no labels.

    Label values are stored as strings (Prometheus label values are
    strings), so ``status=200`` and ``status="200"`` count together.
    """

    def __init__(self, prefix: str, help: Mapping[str, str],
                 labels: Optional[Mapping[str, Sequence[str]]] = None):
        labels = dict(labels or {})
        unknown = set(labels) - set(help)
        if unknown:
            raise ValueError(f"labels for undeclared counters: "
                             f"{sorted(unknown)}")
        self.prefix = prefix
        self.help = dict(help)
        self.labels = {name: tuple(labels.get(name, ())) for name in help}
        self._lock = threading.Lock()
        self._counts: Dict[str, Dict[Tuple[str, ...], int]] = {
            name: {} for name in help
        }

    def fresh(self) -> "Counters":
        """An all-zero set with the same names, help and labels."""
        return Counters(self.prefix, self.help, self.labels)

    def inc(self, name: str, n: int = 1, **labels) -> None:
        """Add ``n`` to counter ``name`` at the given label values."""
        label_names = self.labels[name]
        if set(labels) != set(label_names):
            raise ValueError(f"{self.prefix}_{name} takes labels "
                             f"{label_names}, got {tuple(labels)}")
        key = tuple([str(labels[label]) for label in label_names])
        with self._lock:
            counts = self._counts[name]
            counts[key] = counts.get(key, 0) + n

    def snapshot(self) -> Dict[str, object]:
        """``{name: count}`` for unlabelled counters and ``{name:
        {label-value tuple: count}}`` for labelled ones."""
        with self._lock:
            return {
                name: (dict(counts) if self.labels[name]
                       else counts.get((), 0))
                for name, counts in self._counts.items()
            }

    def reset(self) -> None:
        with self._lock:
            for counts in self._counts.values():
                counts.clear()

    def families(self) -> List[MetricFamily]:
        """One counter family per name, in declaration order.  A
        labelled counter never incremented renders ``(None, 0)``, so
        every family is present from the first scrape."""
        snap = self.snapshot()
        families: List[MetricFamily] = []
        for name, help_text in self.help.items():
            label_names = self.labels[name]
            if label_names:
                samples = [
                    (dict(zip(label_names, key)), count)
                    for key, count in sorted(snap[name].items())
                ] or [(None, 0)]
            else:
                samples = [(None, snap[name])]
            families.append(
                (f"{self.prefix}_{name}_total", "counter", help_text,
                 samples)
            )
        return families
