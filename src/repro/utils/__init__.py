"""Shared utilities: table rendering and validation."""

from .tables import format_number, render_table
from .validation import check_2d, check_binary_labels, check_positive, check_probability

__all__ = [
    "render_table", "format_number",
    "check_2d", "check_binary_labels", "check_probability", "check_positive",
]
