"""Executable EVS semantics: validate application event logs.

Each process's ``app_log`` (AppMessage / ConfigChange sequence) goes
through these checkers, which assert the Extended Virtual Synchrony
axioms the service model of Section II promises.  The axioms live here
once; :class:`~repro.evs.checker.EVSChecker` runs all of them on a
run's logs, so every membership test checks ALL of them, not just the
one it was written for.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple, Union

from .configuration import AppMessage, ConfigChange, Configuration


class EVSViolation(AssertionError):
    """An EVS axiom does not hold for the supplied logs."""


Event = Union[AppMessage, ConfigChange]


def _segments(log: Sequence[Event]) -> List[Tuple[Configuration, List[AppMessage]]]:
    """Split a log into (configuration, messages delivered in it)."""
    segments: List[Tuple[Configuration, List[AppMessage]]] = []
    current: List[AppMessage] = []
    config: Configuration = None
    for event in log:
        if isinstance(event, ConfigChange):
            if config is not None:
                segments.append((config, current))
            config = event.configuration
            current = []
        else:
            if config is None:
                raise EVSViolation("message delivered before any configuration")
            current.append(event)
    if config is not None:
        segments.append((config, current))
    return segments


def check_self_inclusion(log: Sequence[Event], pid: int) -> None:
    """Every delivered configuration includes the process itself."""
    for config, _messages in _segments(log):
        if pid not in config:
            raise EVSViolation(
                "process %d delivered configuration %r it is not part of"
                % (pid, config)
            )


def check_messages_within_configuration(log: Sequence[Event]) -> None:
    """Messages are attributed to the configuration they belong to.

    A message delivered while configuration C is installed must carry
    C's ring id (recovered old-ring messages are delivered before the
    next regular configuration, under the old ring id).
    """
    for config, messages in _segments(log):
        for message in messages:
            if message.ring_id != config.ring_id:
                raise EVSViolation(
                    "message %r delivered under configuration %r"
                    % (message, config)
                )


def check_seq_order_within_configuration(log: Sequence[Event]) -> None:
    """Within one configuration, delivery follows increasing seq."""
    for config, messages in _segments(log):
        seqs = [m.seq for m in messages]
        if seqs != sorted(seqs):
            raise EVSViolation(
                "out-of-seq delivery in configuration %r: %r" % (config, seqs)
            )


def check_transitional_placement(log: Sequence[Event]) -> None:
    """Transitional messages only appear in transitional configurations."""
    for config, messages in _segments(log):
        for message in messages:
            if message.transitional and config.is_regular:
                raise EVSViolation(
                    "transitional-flagged message %r in regular config %r"
                    % (message, config)
                )


def check_virtual_synchrony(
    logs: Dict[int, Sequence[Event]],
) -> None:
    """Processes that share a configuration deliver the same messages
    in it, in the same order (the heart of virtual synchrony).

    A configuration a process has already LEFT (a closed segment) must
    match other processes' closed segments exactly; the configuration a
    process is still in (its final, open segment) only needs to be
    prefix-consistent — the run may have been snapshotted mid-flight.
    """
    # Per configuration: every process's view of it, its open/closed
    # status, and the configuration it moved to NEXT (None while open).
    views: Dict[Tuple, Dict[int, Tuple[List[Tuple[int, object]], Tuple]]] = defaultdict(dict)
    for pid, log in logs.items():
        segments = _segments(log)
        for index, (config, messages) in enumerate(segments):
            key = (config.kind, config.ring_id, config.members)
            view = [(m.seq, m.payload) for m in messages]
            if index == len(segments) - 1:
                next_key = None  # still open
            else:
                next_config = segments[index + 1][0]
                next_key = (next_config.kind, next_config.ring_id,
                            next_config.members)
            views[key][pid] = (view, next_key)
    for key, per_pid in views.items():
        entries = sorted(per_pid.items())
        # 1. ALL views of one configuration are prefix-related: the
        #    total order is shared even by processes that part ways.
        ordered = sorted((view for view, _next in per_pid.values()), key=len)
        for a, b in zip(ordered, ordered[1:]):
            if b[: len(a)] != a:
                raise EVSViolation(
                    "virtual synchrony violated in configuration %r: "
                    "views are not prefix-related" % (key,)
                )
        # 2. Processes that CONTINUE TOGETHER (same closed segment, same
        #    next configuration) must have delivered exactly the same
        #    messages — the EVS equality guarantee proper.
        by_next: Dict[Tuple, List[List]] = defaultdict(list)
        for _pid, (view, next_key) in entries:
            if next_key is not None:
                by_next[next_key].append(view)
        for next_key, group in by_next.items():
            for view in group[1:]:
                if view != group[0]:
                    raise EVSViolation(
                        "virtual synchrony violated in configuration %r: "
                        "processes moving together to %r delivered "
                        "different sets" % (key, next_key)
                    )


def check_agreed_gap_free(log: Sequence[Event]) -> None:
    """Regular-configuration delivery is a gap-free prefix from seq 1.

    Every ring starts its sequence space at 1, and agreed delivery only
    advances contiguously; recovered old-ring messages that cannot be
    delivered gap-free are demoted to the transitional configuration.
    A hole inside a regular segment therefore means ordered messages
    were silently skipped.
    """
    for config, messages in _segments(log):
        if not config.is_regular or not messages:
            continue
        seqs = [m.seq for m in messages]
        expected = list(range(1, len(seqs) + 1))
        if seqs != expected:
            raise EVSViolation(
                "regular configuration %r delivered non-contiguous seqs %r"
                % (config, seqs)
            )


def check_transitional_sandwich(log: Sequence[Event]) -> None:
    """Transitional configurations sit between the right regulars.

    A transitional configuration must (a) directly follow a regular
    configuration with the SAME ring id whose membership contains the
    transitional members, and (b) be directly followed by a regular
    configuration that also contains them — the EVS sandwich that scopes
    the weakened guarantees.  The first configuration of a log must be
    regular (processes boot into a singleton regular configuration).
    """
    segments = _segments(log)
    if not segments:
        return
    first_config = segments[0][0]
    if not first_config.is_regular:
        raise EVSViolation(
            "log begins with non-regular configuration %r" % (first_config,)
        )
    for index, (config, _messages) in enumerate(segments):
        if config.is_regular:
            continue
        if index == 0:
            raise EVSViolation(
                "transitional configuration %r with no preceding regular"
                % (config,)
            )
        previous = segments[index - 1][0]
        if not previous.is_regular:
            raise EVSViolation(
                "transitional configuration %r follows non-regular %r"
                % (config, previous)
            )
        if previous.ring_id != config.ring_id:
            raise EVSViolation(
                "transitional configuration %r does not share the preceding "
                "regular configuration's ring id (%r)" % (config, previous)
            )
        if not set(config.members) <= set(previous.members):
            raise EVSViolation(
                "transitional members %r not a subset of old regular %r"
                % (config.members, previous.members)
            )
        if index + 1 >= len(segments):
            raise EVSViolation(
                "transitional configuration %r is not followed by a regular "
                "configuration" % (config,)
            )
        following = segments[index + 1][0]
        if not following.is_regular:
            raise EVSViolation(
                "transitional configuration %r followed by non-regular %r"
                % (config, following)
            )
        if not set(config.members) <= set(following.members):
            raise EVSViolation(
                "transitional members %r not a subset of new regular %r"
                % (config.members, following.members)
            )


def check_no_duplicates(log: Sequence[Event]) -> None:
    """No (ring_id, seq) is ever delivered twice."""
    seen = set()
    for event in log:
        if isinstance(event, AppMessage):
            key = (event.ring_id, event.seq)
            if key in seen:
                raise EVSViolation("duplicate delivery of %r" % (key,))
            seen.add(key)


#: The per-log axioms that follow :func:`check_self_inclusion` (the one
#: that also needs the pid), in the order
#: :class:`~repro.evs.checker.EVSChecker` runs them.
PER_LOG_CHECKS = (
    check_messages_within_configuration,
    check_seq_order_within_configuration,
    check_transitional_placement,
    check_agreed_gap_free,
    check_transitional_sandwich,
    check_no_duplicates,
)

