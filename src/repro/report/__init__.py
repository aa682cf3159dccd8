"""Plain-text reporting: tables, ASCII charts, run summaries."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".gantt": ("migration_summary", "schedule_chart", "schedule_strips"),
    ".charts": ("bar_chart", "grouped_bar_chart", "histogram", "series_plot"),
    ".summary": ("comparison_summary", "run_summary", "sweep_summary"),
    ".tables": ("format_percent", "format_table"),
})
