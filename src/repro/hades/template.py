"""The HADES template system: generic designs with explorable choices.

Paper Section III-A: "The templates abstractly describe the
cryptographic primitives or subroutines thereof with placeholders for
nested components such as adders or masked gadgets.  Templates can be
nested as needed and a user need only be concerned with the interface
of a template."

A :class:`Template` owns

* ``parameters`` — named finite sets of local design choices,
* ``slots`` — named placeholders, each with a list of *candidate*
  templates that may fill it (recursion happens here), and
* ``cost`` — the "customized performance prediction which may depend on
  the performance of sub-templates".

The configuration space of a template is the Cartesian product of its
parameter choices with, for every slot, the disjoint union of every
candidate's own configuration space.  A :class:`DesignIndex` numbers it
by integer rank, the one numbering both explorers use, and caches
sub-design metrics per :class:`DesignContext`, the one sub-design cache
they share.  :func:`enumerate_designs` streams the feasible
(configuration, metrics) pairs in rank order.  The top level is folded
in *lane chunks* (:func:`enumerate_chunks`): one cost call prices every
design that differs only in the innermost slot, so a million-point
space (Kyber-CCA) takes one cost call per 1302 designs and folds in
well under a second.  Lane columns are lazy, and each knows a lower
bound of its lanes (``floor``) without computing them, so a fold
computes lanes only for the chunks that can still hold its optimum.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .metrics import Metrics


class InfeasibleConfiguration(Exception):
    """Raised by a cost function when a configuration cannot be built in
    the present context (e.g. a table-lookup S-box at masking order > 0)."""


@dataclass(frozen=True)
class DesignContext:
    """Global exploration knobs shared by the whole template tree."""

    masking_order: int = 0
    width: int = 32          # operand width for width-generic templates

    def __post_init__(self):
        if self.masking_order < 0:
            raise ValueError("masking order must be >= 0")
        if self.width <= 0:
            raise ValueError("width must be positive")


@dataclass(frozen=True)
class Configuration:
    """A fully instantiated design point of some template.

    ``params`` maps parameter names to chosen values; ``slots`` maps
    slot names to the (candidate template name, sub-configuration)
    actually chosen.
    """

    template: str
    params: tuple          # sorted tuple of (name, value)
    slots: tuple           # sorted tuple of (slot, Configuration)

    def param(self, name: str):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def describe(self) -> str:
        """Human-readable one-line description of the design point."""
        parts = [f"{k}={v}" for k, v in self.params]
        parts += [f"{k}:[{v.describe()}]" for k, v in self.slots]
        inner = ", ".join(parts)
        return f"{self.template}({inner})"


class Template:
    """A generic hardware design with explorable parameters and slots."""

    def __init__(self, name: str, cost, parameters: dict = None,
                 slots: dict = None):
        self.name = name
        self.cost = cost
        self.parameters = {key: tuple(values)
                           for key, values in (parameters or {}).items()}
        self.slots = {key: tuple(candidates)
                      for key, candidates in (slots or {}).items()}
        for key, values in self.parameters.items():
            if not values:
                raise ValueError(f"parameter {key!r} of {name!r} is empty")
        for key, candidates in self.slots.items():
            if not candidates:
                raise ValueError(f"slot {key!r} of {name!r} is empty")
            # A configuration names its candidate: a duplicate name
            # would silently price the first one.
            names = [candidate.name for candidate in candidates]
            if len(set(names)) != len(names):
                raise ValueError(
                    f"slot {key!r} of {name!r} has two candidates "
                    f"with one name")
        # Each slot's candidates by name: names are unique (above), so
        # the index is exact.
        self._candidates = {
            key: {candidate.name: candidate for candidate in candidates}
            for key, candidates in self.slots.items()}

    @cached_property
    def design_index(self) -> "DesignIndex":
        """This template's :class:`DesignIndex`, compiled on first use."""
        return DesignIndex(self)

    def count_configurations(self) -> int:
        """Closed-form size of this template's configuration space."""
        return self.design_index.count

    def evaluate(self, configuration: Configuration,
                 context: DesignContext) -> Metrics:
        """Predict the metrics of one configuration (recursively),
        caching nothing: the independent check of
        :meth:`DesignIndex.pricer`."""
        if configuration.template != self.name:
            raise ValueError(
                f"configuration is for {configuration.template!r}, "
                f"not {self.name!r}")
        sub_metrics = {}
        for slot_name, sub_config in configuration.slots:
            candidate = self._candidate(slot_name, sub_config.template)
            sub_metrics[slot_name] = candidate.evaluate(sub_config, context)
        return self.cost(dict(configuration.params), sub_metrics, context)

    def _candidate(self, slot_name: str, template_name: str) -> "Template":
        try:
            return self._candidates[slot_name][template_name]
        except KeyError:
            raise KeyError(f"no candidate {template_name!r} for slot "
                           f"{slot_name!r}") from None

    def default_configuration(self) -> Configuration:
        """The first configuration in enumeration order."""
        return self.design_index.configuration(0)

    def random_configuration(self, rng) -> Configuration:
        """A uniformly random configuration (for local-search starts)."""
        params = tuple(sorted(
            (key, rng.choice(values))
            for key, values in self.parameters.items()))
        slots = []
        for key, candidates in self.slots.items():
            weights = [c.count_configurations() for c in candidates]
            candidate = rng.choices(candidates, weights=weights)[0]
            slots.append((key, candidate.random_configuration(rng)))
        return Configuration(self.name, params, tuple(sorted(slots)))


class DesignIndex:
    """One template's configuration space, numbered by integer rank: the
    one numbering both explorers use.

    A rank is mixed-radix: one digit per parameter (the value's
    position) and per slot (the position in the slot's flattened
    sub-design list, candidate after candidate).  Digits are significant
    in name order, parameters by name then slots by name, the last one
    least significant, and the rule recurses into every sub-design; rank
    0 is the default design.  So rank order is the exhaustive fold's
    order, and its innermost slot is the last digit.  ``params`` and
    ``slots`` keep declared order, the order :meth:`neighbours` visits
    the decision sites in; ``digit_params`` and ``digit_slots`` hold the
    same entries in significance order, the one the strides follow.
    Infeasible designs keep their ranks and price as ``None``.

    Every slot holding a template shares its index.  Below the root,
    neighbour lists and (per :class:`DesignContext`) metrics are cached,
    bounded by the sub-space sizes, so cost models must be pure.  The
    metric tables are the one sub-design cache: local search fills them
    a design at a time, the exhaustive fold (:func:`enumerate_chunks`)
    a whole slot space at a time, and either finds what the other left.
    """

    def __init__(self, template: Template):
        self.template = template
        param_names, slot_names = (sorted(template.parameters),
                                   sorted(template.slots))
        params, slots, stride = {}, {}, 1
        for name in reversed(slot_names):
            nodes = tuple(candidate.design_index
                          for candidate in template.slots[name])
            offsets = tuple(itertools.accumulate(
                (node.count for node in nodes), initial=0))
            slots[name] = (name, offsets, nodes, stride)
            stride *= offsets[-1]
        self._param_span = stride
        for name in reversed(param_names):
            values = template.parameters[name]
            params[name] = (name, values, stride)
            stride *= len(values)
        self.count = stride
        self.params = [params[name] for name in template.parameters]
        self.slots = [slots[name] for name in template.slots]
        self.digit_params = [params[name] for name in param_names]
        self.digit_slots = [slots[name] for name in slot_names]
        self._tables, self._neighbours = {}, {}

    def rank_of(self, configuration: Configuration) -> int:
        chosen, subs = dict(configuration.params), dict(configuration.slots)
        rank = sum(values.index(chosen[name]) * stride
                   for name, values, stride in self.params)
        for name, offsets, nodes, stride in self.slots:
            sub = subs[name]
            node = [node.template.name for node in nodes].index(sub.template)
            rank += (offsets[node] + nodes[node].rank_of(sub)) * stride
        return rank

    def configuration(self, rank: int) -> Configuration:
        params = [(name, values[rank // stride % len(values)])
                  for name, values, stride in self.params]
        slots = []
        for name, offsets, nodes, stride in self.slots:
            position = rank // stride % offsets[-1]
            node = bisect_right(offsets, position) - 1
            slots.append((name, nodes[node].configuration(
                position - offsets[node])))
        return Configuration(self.template.name, tuple(sorted(params)),
                             tuple(sorted(slots)))

    def neighbours(self, rank: int) -> list:
        """The ranks of every single-decision variation of ``rank``:
        each parameter's other values, then per slot the other
        candidates' defaults and the current sub-design's own
        neighbours."""
        ranks = []
        for _, values, stride in self.params:
            base = rank - rank // stride % len(values) * stride
            ranks += [base + value * stride for value in range(len(values))
                      if base + value * stride != rank]
        for _, offsets, nodes, stride in self.slots:
            position = rank // stride % offsets[-1]
            node = bisect_right(offsets, position) - 1
            sub, first = nodes[node], offsets[node]
            local = position - first
            base = rank - position * stride
            ranks += [base + offset * stride for offset in offsets[:-1]
                      if offset != first]
            if local not in sub._neighbours:   # packed: ranks are big ints
                sub._neighbours[local] = array("q", sub.neighbours(local))
            base += first * stride
            ranks += [base + move * stride for move in sub._neighbours[local]]
        return ranks

    def pricer(self, context: DesignContext):
        """``price(rank)``: the metrics of ``rank`` in ``context``, or
        ``None`` if it is infeasible.  One call of the template's
        ``cost``, read at call time, on sub-design metrics from the
        tables below."""
        slots = [(name, offsets, nodes, stride, tuple(
            node._tables.setdefault(context, {}) for node in nodes))
            for name, offsets, nodes, stride in self.slots]
        template, param_dicts = self.template, {}   # dies with the pricer

        def price(rank):
            combo = rank // self._param_span
            if combo not in param_dicts:
                param_dicts[combo] = {
                    name: values[rank // stride % len(values)]
                    for name, values, stride in self.params}
            sub_metrics = {}
            for name, offsets, nodes, stride, tables in slots:
                position = rank // stride % offsets[-1]
                node = bisect_right(offsets, position) - 1
                position -= offsets[node]
                table = tables[node]
                if position not in table:
                    table[position] = nodes[node].pricer(context)(position)
                sub_metrics[name] = metrics = table[position]
                if metrics is None:
                    return None
            try:
                return template.cost(param_dicts[combo], sub_metrics,
                                     context)
            except InfeasibleConfiguration:
                return None

        return price

    def table(self, context: DesignContext) -> list:
        """Every design's metrics in ``context`` (``None`` where
        infeasible), in rank order: this index's table for ``context``,
        completed through :meth:`pricer`."""
        table = self._tables.setdefault(context, {})
        if len(table) < self.count:
            price = self.pricer(context)
            for rank in range(self.count):
                if rank not in table:
                    table[rank] = price(rank)
        return [table[rank] for rank in range(self.count)]


@dataclass
class EvaluatedDesign:
    """One enumerated design point with its predicted metrics."""

    configuration: Configuration
    metrics: Metrics


def _nonneg(value) -> bool:
    """True when no lane of ``value`` (a column or a scalar) is below 0.
    A scalar that is not a number raises ``TypeError`` here."""
    return value.nonneg if type(value) is _Column else not value < 0


def _apply(op, left, right) -> list:
    """The lanes of ``op`` (``operator.add`` or ``operator.mul``) over
    lane lists, a scalar taking part on either side, in the scalar
    expression's operand order.  Comprehensions, not map(op), where a
    scalar takes part: the interpreter's inline float arithmetic is
    the hot loop of a fold."""
    if type(left) is not list:
        return [left + x for x in right] if op is operator.add \
            else [left * x for x in right]
    if type(right) is not list:
        return [x + right for x in left] if op is operator.add \
            else [x * right for x in left]
    return list(map(op, left, right))


def _derived(op, left, right, width: int, nonneg: bool) -> "_Column":
    """The column ``left op right``, its lanes computed when first
    read."""
    column = object.__new__(_Column)
    column._lanes, column._floor, column._op = None, None, op
    column._left, column._right = left, right
    column.width, column.nonneg = width, nonneg
    return column


class _Column:
    """One metric across the lanes of a chunk.

    Arithmetic is the operators the cost models use — ``+`` and ``*``
    with a scalar broadcast on either side, ``/`` by a column or a
    scalar — elementwise, so an unchanged scalar cost model prices
    every lane in one call.  Each lane evaluates exactly the scalar
    expression (same operands, same order, plain Python numbers), so a
    lane equals :meth:`Template.evaluate` value for value and type for
    type.

    ``+`` and ``*`` are lazy: they record the operator and its
    operands, and the lanes (a plain list) are computed the first time
    something reads ``lanes``; the column then drops its operands.  A
    fold that reads only its goal's column never computes the others.
    ``/``, the one operator that can raise on numbers
    (``ZeroDivisionError``), computes at once, so the error still
    surfaces from the cost call.

    ``<`` is elementwise too, and a column's truth value exists only
    when every lane agrees: a cost model that branches on a
    sub-template metric where the lanes disagree gets ``TypeError``
    instead of one branch silently applied to every lane.  Anything
    else a number supports (``-``, the other comparisons, ``float()``,
    ``**``, ``//``, hashing) raises ``TypeError`` as well.

    ``width`` (the lane count) and ``nonneg`` are known without the
    lanes.  ``nonneg`` records that no lane is below zero: true of
    sub-design metrics, and kept by ``+``, ``*`` and ``/`` of such
    operands.  It lets ``x < 0`` — the check every :class:`Metrics`
    runs on its fields — answer ``False``, the value of every lane,
    without reading one.

    ``floor`` is a number no lane is below, found without the lanes
    where that is sound (:meth:`_bound`), so a fold can drop a chunk
    that cannot beat its running best before computing any lane.
    """

    __slots__ = ("_lanes", "_floor", "_op", "_left", "_right", "width",
                 "nonneg")

    def __init__(self, lanes: list, nonneg: bool = False):
        self._lanes = lanes
        self._floor = None
        self.width = len(lanes)
        self.nonneg = nonneg

    @property
    def lanes(self) -> list:
        if self._lanes is None:
            self._force()
        return self._lanes

    @property
    def floor(self):
        """A number that no lane is below, computed once."""
        if self._floor is None:
            self._bound()
        return self._floor

    def _bound(self) -> None:
        """Compute this column's floor and every unknown floor below it
        that it needs, deepest first, with an explicit stack as
        :meth:`_force` does.

        Round-to-nearest is monotone: ``a <= b`` implies
        ``fl(a + c) <= fl(b + c)``, and for ``c >= 0`` also
        ``fl(a * c) <= fl(b * c)``.  So the floor of ``+``, and of
        ``*`` when both factors are non-negative, is the operator over
        its operands' floors (a scalar is its own floor), in the lane
        expression's operand order.  A chain over one column of lanes
        then has exactly its minimum lane as its floor.  Every other
        column takes the minimum of its lanes: one built from lanes, a
        ``/`` (computed at once), a ``*`` by a possibly negative factor,
        and a one-lane column, whose lane costs what its floor would."""
        stack = [self]
        while stack:
            column = stack[-1]
            if column._floor is not None:   # an operand pushed twice
                stack.pop()
                continue
            if column._lanes is not None or column.width == 1 or (
                    column._op is operator.mul and not column.nonneg):
                stack.pop()
                column._floor = min(column.lanes)
                continue
            left, right = column._left, column._right
            if type(left) is _Column:
                if left._floor is None:
                    stack.append(left)
                    continue
                left = left._floor
            if type(right) is _Column:
                if right._floor is None:
                    stack.append(right)
                    continue
                right = right._floor
            stack.pop()
            column._floor = column._op(left, right)

    def _force(self) -> None:
        """Compute this column and every unread column below it, deepest
        first, with an explicit stack: a cost model that sums N terms
        in a loop builds a chain N deep."""
        stack = [self]
        while stack:
            column = stack[-1]
            if column._lanes is not None:   # an operand pushed twice
                stack.pop()
                continue
            left, right = column._left, column._right
            if type(left) is _Column:
                if left._lanes is None:
                    stack.append(left)
                    continue
                left = left._lanes
            if type(right) is _Column:
                if right._lanes is None:
                    stack.append(right)
                    continue
                right = right._lanes
            stack.pop()
            column._lanes = _apply(column._op, left, right)
            column._op = column._left = column._right = None

    def __add__(self, other):
        return _derived(operator.add, self, other, self.width,
                        _nonneg(other) and self.nonneg)

    def __radd__(self, other):
        return _derived(operator.add, other, self, self.width,
                        _nonneg(other) and self.nonneg)

    def __mul__(self, other):
        return _derived(operator.mul, self, other, self.width,
                        _nonneg(other) and self.nonneg)

    def __rmul__(self, other):
        return _derived(operator.mul, other, self, self.width,
                        _nonneg(other) and self.nonneg)

    def __truediv__(self, other):
        nonneg = _nonneg(other) and self.nonneg
        if type(other) is _Column:
            return _Column(list(map(operator.truediv, self.lanes,
                                    other.lanes)), nonneg)
        return _Column([x / other for x in self.lanes], nonneg)

    def __lt__(self, other):
        if type(other) is not _Column and self.nonneg and other <= 0:
            return False
        others = other.lanes if type(other) is _Column \
            else itertools.repeat(other)
        return _Column(list(map(operator.lt, self.lanes, others)))

    __hash__ = None

    def __bool__(self):
        lanes = self.lanes
        if all(lanes):
            return True
        if not any(lanes):
            return False
        raise TypeError(
            "lanes disagree on a branch: a cost model must not branch "
            "on a sub-template metric")


def _column_metrics(area_kge, latency_cc, randomness_bits) -> Metrics:
    """A :class:`Metrics` over lane columns.  Skips the non-negativity
    check, which cannot take one truth value for a column; every lane
    here is already checked (a sub-design's, or a cost result's)."""
    metrics = object.__new__(Metrics)
    fields = metrics.__dict__
    fields["area_kge"] = area_kge
    fields["latency_cc"] = latency_cc
    fields["randomness_bits"] = randomness_bits
    return metrics


def _slot_space(slot: tuple, context: DesignContext) -> tuple:
    """A slot digit's feasible positions in ``context`` and their
    metrics, in rank order, read from its candidates' tables."""
    _, offsets, nodes, _ = slot
    positions, designs = [], []
    for first, node in zip(offsets, nodes):
        for local, metrics in enumerate(node.table(context)):
            if metrics is not None:
                positions.append(first + local)
                designs.append(metrics)
    return positions, designs


def _broadcast(value, lanes: int) -> _Column:
    return value if type(value) is _Column else _Column([value] * lanes)


class DesignChunk:
    """Feasible designs of one template that differ only in the
    innermost slot: one cost call priced them all.

    Lane ``lane`` is rank ``base + positions[lane]`` of ``index`` (the
    innermost slot is the least significant digit), and ``metrics`` is
    one :class:`Metrics` whose fields are lane columns.  A lane's
    :class:`Configuration` is built only on request (:meth:`design`).
    A template without slots has one lane per chunk.
    """

    __slots__ = ("index", "base", "positions", "metrics", "shared")

    def __init__(self, index, base, positions, result):
        self.index = index
        self.base = base
        self.positions = positions  # innermost slot's feasible positions
        fields = (result.area_kge, result.latency_cc,
                  result.randomness_bits)
        # When no lane column reached the result, it is the same for
        # every lane, which share it as the scalar path returns it.
        self.shared = None if _Column in map(type, fields) else result
        self.metrics = _column_metrics(
            *(_broadcast(value, len(positions)) for value in fields))

    def rank(self, lane: int) -> int:
        return self.base + self.positions[lane]

    def lane_metrics(self, lane: int) -> Metrics:
        if self.shared is not None:
            return self.shared
        metrics = self.metrics
        return Metrics(metrics.area_kge.lanes[lane],
                       metrics.latency_cc.lanes[lane],
                       metrics.randomness_bits.lanes[lane])

    def design(self, lane: int) -> EvaluatedDesign:
        return EvaluatedDesign(self.index.configuration(self.rank(lane)),
                               self.lane_metrics(lane))

    def designs(self):
        return map(self.design, range(len(self.positions)))


def enumerate_designs(template: Template, context: DesignContext):
    """Stream every feasible (configuration, metrics) of ``template``, in
    rank order.  The top level is priced one lane chunk at a time
    (:func:`enumerate_chunks`), so a parent with a million-point product
    space (Kyber-CCA) pays one cost call per innermost-slot sweep and
    is never materialised.  Infeasible configurations are skipped
    silently."""
    for chunk in enumerate_chunks(template, context):
        yield from chunk.designs()


def enumerate_chunks(template: Template, context: DesignContext,
                     shard: tuple = (0, 1)):
    """Stream ``template``'s feasible designs as lane chunks, in rank
    order.

    A :class:`DesignChunk` fixes the parameters and every slot but the
    innermost (the least significant digit of the template's
    :class:`DesignIndex`, ``digit_slots[-1]``); its lanes are that slot's
    feasible positions.  Sub-design metrics come from the index's
    per-context tables, completed through :meth:`DesignIndex.pricer`
    where a run finds them short, and outer slots take feasible
    positions only.  ``shard=(k, J)`` streams chunks ``k, k+J,
    k+2J, ...`` only, over the same lane columns; the union over ``k``
    is the serial stream, and within a shard ranks only grow.
    The template's ``cost`` is called once per chunk with the
    innermost slot's metrics as lane columns.  A cost model may
    compute with sub-template metrics (``+`` and ``*`` with scalars on
    either side, ``/`` by a column or a scalar) but not branch on them
    where lanes disagree (``TypeError``).  ``+`` and ``*`` are lazy: a
    chunk's columns are computed when first read (:class:`_Column`).
    ``InfeasibleConfiguration`` drops the whole chunk, so it must
    depend only on parameters and outer slots.
    """
    offset, every = shard
    if offset < 0 or every < 1:
        raise ValueError("shard offset must be >= 0, shard step >= 1")
    index, cost = template.design_index, template.cost
    params, slots = index.digit_params, list(index.digit_slots)
    spaces = [_slot_space(slot, context) for slot in slots]
    inner, positions, columns = None, (0,), None
    if slots:
        inner = slots.pop()[0]
        positions, designs = spaces.pop()
        if not positions:
            return
        # Lane columns are built per run (never cached), so they are of
        # whatever class this module's ``_Column`` names when it starts.
        columns = _column_metrics(
            _Column([metrics.area_kge for metrics in designs], True),
            _Column([metrics.latency_cc for metrics in designs], True),
            _Column([metrics.randomness_bits for metrics in designs],
                    True))
    # One list per decision site of (choice, its part of the rank).
    digits = [[(value, place * stride) for place, value in enumerate(values)]
              for _, values, stride in params]
    digits += [[(metrics, place * stride) for place, metrics in zip(*space)]
               for (_, _, _, stride), space in zip(slots, spaces)]
    param_names = [name for name, _, _ in params]
    slot_names = [name for name, _, _, _ in slots]
    n_params = len(params)
    for combo in itertools.islice(itertools.product(*digits), offset,
                                  None, every):
        param_dict = {name: value
                      for name, (value, _) in zip(param_names, combo)}
        sub_metrics = {name: metrics for name, (metrics, _)
                       in zip(slot_names, combo[n_params:])}
        if inner is not None:
            sub_metrics[inner] = columns
        try:
            result = cost(param_dict, sub_metrics, context)
        except InfeasibleConfiguration:
            continue
        except TypeError:
            if inner is None:
                raise
            _replay_lanes(cost, param_dict, sub_metrics, context, inner,
                          designs)
            raise
        yield DesignChunk(index, sum(part for _, part in combo),
                          positions, result)


def _replay_lanes(cost, params: dict, sub_metrics: dict, context,
                  inner: str, designs: list) -> None:
    """Price a failed chunk one lane at a time, so an error the scalar
    path raises for one lane (a negative metric: ``ValueError``)
    surfaces as that error rather than as the column's ``TypeError``."""
    for metrics in designs:
        try:
            cost(params, {**sub_metrics, inner: metrics}, context)
        except InfeasibleConfiguration:
            pass
