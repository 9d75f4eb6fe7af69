"""One declaration per serving knob: default, CLI flag, help and bounds.

A config field declared with :func:`knob` carries, in its metadata, the
flag(s) and ``argparse`` options that ``repro`` builds its flags from,
and the bounds that the config's ``__post_init__`` checks with
:func:`check_knobs`.  ``FleetConfig`` re-declares the shard and router
knobs with :func:`reuse`, rebuilds a ``ServeConfig``/``RouterConfig``
from them with :func:`sub_config`, and renders a shard's argv with
:func:`knob_argv`.
"""

from __future__ import annotations

import operator
from dataclasses import MISSING, field, fields
from typing import Any

from repro.errors import ConfigError

__all__ = ["check_knobs", "knob", "knob_argv", "knob_error", "reuse", "sub_config"]

_BOUNDS = (
    ("ge", ">=", operator.ge), ("gt", ">", operator.gt), ("le", "<=", operator.le)
)


def knob(
    default: Any,
    *flags: str,
    ge: float | None = None,
    gt: float | None = None,
    le: float | None = None,
    **options: Any,
) -> Any:
    """A config field with its flag(s), ``argparse`` options and bounds.

    The ``argparse`` attribute is ``options["dest"]`` or, as in
    ``argparse``, derives from the last flag.  A ``None`` value skips
    the bounds (an unset optional knob).
    """
    metadata = {"flags": flags, "options": options, "ge": ge, "gt": gt, "le": le}
    if flags:
        derived = flags[-1].lstrip("-").replace("-", "_")
        metadata["dest"] = options.get("dest", derived)
    return field(default=default, metadata=metadata)


def reuse(
    config: type,
    name: str,
    default: Any = MISSING,
    *,
    flags: tuple[str, ...] | None = None,
    **options: Any,
) -> Any:
    """Re-declare knob ``name`` of ``config``: same default, flag,
    options and bounds unless overridden, tagged for :func:`sub_config`."""
    source = {item.name: item for item in fields(config)}[name]
    metadata = dict(source.metadata, of=config)
    metadata["options"] = {**source.metadata["options"], **options}
    if flags is not None:
        metadata["flags"] = flags
    if default is MISSING:
        default = source.default
    return field(default=default, metadata=metadata)


def sub_config(owner: Any, config: type, **values: Any) -> Any:
    """Build ``config`` from the knobs ``owner`` reuses from it."""
    reused = {
        item.name: getattr(owner, item.name)
        for item in fields(owner)
        if item.metadata.get("of") is config
    }
    return config(**{**reused, **values})


def knob_error(config: Any, name: str, message: str) -> ConfigError:
    """A :class:`ConfigError` naming knob ``name`` and its flag."""
    flags = {item.name: item for item in fields(config)}[name].metadata.get("flags")
    return ConfigError(message, field=name, flag=flags[-1] if flags else None)


def check_knobs(config: Any) -> None:
    """Raise :class:`ConfigError` for the first knob out of its bounds."""
    for item in fields(config):
        value = getattr(config, item.name)
        for key, relation, holds in _BOUNDS:
            limit = item.metadata.get(key)
            if value is not None and limit is not None and not holds(value, limit):
                raise knob_error(
                    config, item.name,
                    f"{item.name} must be {relation} {limit}, got {value}",
                )


def knob_argv(config: Any) -> list[str]:
    """The flags that rebuild ``config``: one per flagged scalar knob
    whose value differs from its default."""
    argv: list[str] = []
    for item in fields(config):
        flags = item.metadata.get("flags")
        value = getattr(config, item.name)
        if flags and value != item.default:
            argv += [flags[-1], str(value)]
    return argv
