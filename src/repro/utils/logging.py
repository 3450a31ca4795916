"""Library logging: namespaced loggers with the standard null handler.

Follows library convention: ``repro`` never configures the root logger;
applications opt in (e.g. ``logging.basicConfig(level=logging.DEBUG)``)
and then see solver/refresher diagnostics.
"""

from __future__ import annotations

import logging

_ROOT_NAME = "repro"

logging.getLogger(_ROOT_NAME).addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace (``repro.<name>``)."""
    if not name:
        return logging.getLogger(_ROOT_NAME)
    if name.startswith(_ROOT_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")
