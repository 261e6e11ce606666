"""Process splitting: the monolithic lower program -> a maximal set of
tiny processes (paper SS6.1 step 1).

Each *sink* (a state-element commit, a memory store, or an ``Expect``)
pulls its transitive fanin cone into an independent process, duplicating
shared instructions (paper: "Partitioning can duplicate DAG nodes across
multiple cores, maximizing parallelism at the expense of increased
computation").  Two constraints force sinks together:

* every instruction touching one memory region must live in one process
  (data cannot move mid-Vcycle under BSP), and
* all privileged instructions must live in one process (single privileged
  core).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import instructions as isa
from .lir import LoweredDesign, PGlobalStore, PLocalStore


class UnionFind:
    """Plain disjoint-set with path compression."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class Partition:
    """One process-to-be: a set of monolithic body indices plus the state
    commits it owns."""

    indices: set[int] = field(default_factory=set)
    commits: list[tuple[str, str]] = field(default_factory=list)
    privileged: bool = False

    def cost(self) -> int:
        """Instruction-count estimate excluding Sends (added by merge)."""
        return len(self.indices) + len(self.commits)


@dataclass
class PartitionedProgram:
    """Output of split/merge: partitions over a shared lowered design."""

    design: LoweredDesign
    partitions: list[Partition]

    def total_instructions(self) -> int:
        return sum(p.cost() for p in self.partitions)

    def communication_graph(self) -> dict[int, set[int]]:
        """Partition index -> set of partner partition indices."""
        owners, readers = commit_ownership(self)
        graph: dict[int, set[int]] = {i: set() for i in
                                      range(len(self.partitions))}
        for cur, owner in owners.items():
            for reader in readers.get(cur, ()):
                if reader != owner:
                    graph[owner].add(reader)
                    graph[reader].add(owner)
        return graph

    def send_count(self) -> int:
        """Total Send instructions the current partitioning implies."""
        owners, readers = commit_ownership(self)
        total = 0
        for cur, owner in owners.items():
            total += sum(1 for r in readers.get(cur, ()) if r != owner)
        return total


def def_map(design: LoweredDesign) -> dict[str, int]:
    """SSA definition map: virtual register -> defining body index."""
    defs: dict[str, int] = {}
    for i, instr in enumerate(design.body):
        for reg in instr.writes():
            defs[reg] = i
    return defs


def data_predecessors(design: LoweredDesign) -> list[list[int]]:
    """Per body index, the indices it data-depends on (incl. carry)."""
    defs = def_map(design)
    preds: list[list[int]] = [[] for _ in design.body]
    for i, instr in enumerate(design.body):
        for reg in instr.reads():
            j = defs.get(reg)
            if j is not None and j != i:
                preds[i].append(j)
    for producer, consumer in design.extra_data_edges:
        preds[consumer].append(producer)
    # Carry chains: an AddCarry also depends on the SetCarry that opened
    # its chain - reconstruct by scanning carry ops in order.
    chain_start: int | None = None
    for idx in design.carry_indices:
        instr = design.body[idx]
        if isinstance(instr, isa.SetCarry):
            chain_start = idx
        elif chain_start is not None:
            preds[idx].append(chain_start)
    return preds


def fanin_cone(preds: list[list[int]], roots: list[int]) -> set[int]:
    cone: set[int] = set()
    stack = list(roots)
    while stack:
        i = stack.pop()
        if i in cone:
            continue
        cone.add(i)
        stack.extend(p for p in preds[i] if p not in cone)
    return cone


def split(design: LoweredDesign) -> PartitionedProgram:
    """Create the maximal set of independent processes (paper SS6.1)."""
    preds = data_predecessors(design)
    defs = def_map(design)

    # Enumerate sinks: (kind, payload).
    sinks: list[tuple[str, object]] = []
    for k, (cur, nxt) in enumerate(design.commits):
        sinks.append(("commit", k))
    for i, instr in enumerate(design.body):
        if isinstance(instr, (PLocalStore, PGlobalStore, isa.Expect)):
            sinks.append(("instr", i))

    # Compute each sink's cone.
    cones: list[set[int]] = []
    for kind, payload in sinks:
        if kind == "commit":
            cur, nxt = design.commits[payload]  # type: ignore[index]
            root = defs.get(nxt)
            cones.append(fanin_cone(preds, [root]) if root is not None
                         else set())
        else:
            cones.append(fanin_cone(preds, [payload]))  # type: ignore[list-item]

    uf = UnionFind(len(sinks))

    # Memory constraint: sinks touching the same memory unite.
    for memory, users in design.memory_users.items():
        first = None
        for s, cone in enumerate(cones):
            if cone & users:
                if first is None:
                    first = s
                else:
                    uf.union(first, s)

    # Privileged constraint: one privileged process.
    first_priv = None
    for s, cone in enumerate(cones):
        if any(i in design.privileged_indices for i in cone):
            if first_priv is None:
                first_priv = s
            else:
                uf.union(first_priv, s)

    # Build partitions per union-find group.
    groups: dict[int, Partition] = {}
    for s, (kind, payload) in enumerate(sinks):
        root = uf.find(s)
        part = groups.setdefault(root, Partition())
        part.indices |= cones[s]
        if kind == "commit":
            part.commits.append(design.commits[payload])  # type: ignore[index]
        if any(i in design.privileged_indices for i in cones[s]):
            part.privileged = True

    partitions = list(groups.values())
    # Ensure exactly one privileged partition exists even if the design
    # has no privileged sinks at all (rare; e.g. pure-state designs).
    if not any(p.privileged for p in partitions) and partitions:
        partitions[0].privileged = True
    return PartitionedProgram(design, partitions)


def commit_ownership(prog: PartitionedProgram,
                     ) -> tuple[dict[str, int], dict[str, set[int]]]:
    """(owners, readers): which partition commits each state register and
    which partitions read its current value."""
    owners: dict[str, int] = {}
    for pi, part in enumerate(prog.partitions):
        for cur, _nxt in part.commits:
            owners[cur] = pi

    state_regs = set(owners)
    readers: dict[str, set[int]] = {}
    for pi, part in enumerate(prog.partitions):
        used: set[str] = set()
        for i in part.indices:
            for reg in prog.design.body[i].reads():
                if reg in state_regs:
                    used.add(reg)
        # Commit sources that are themselves state registers (``Mov`` from
        # another register's current value) also count as reads.
        for _cur, nxt in part.commits:
            if nxt in state_regs:
                used.add(nxt)
        for reg in used:
            readers.setdefault(reg, set()).add(pi)
    return owners, readers
