"""Graph family generators and the family-spec mini-grammar.

Supported kinds: path, cycle, complete, star, complete_multipartite,
caterpillar, thorn. Vertex indexing is deterministic so that witnesses
stay reproducible: multipartite parts occupy ascending contiguous
blocks, caterpillar spines come before their leaves, and thorn pendants
occupy one contiguous block per base vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


class FamilySpecError(ValueError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    """Parameterized description of a named graph family.

    sizes is kind-specific: the single order for path/cycle/complete/star,
    part sizes (ascending) for complete_multipartite, per-spine-vertex leaf
    counts for caterpillar, and per-base-vertex pendant counts for thorn.
    Thorn specs also carry the base FamilySpec; `thorn(base, m)` builds the
    uniform case.
    """

    kind: str
    sizes: tuple[int, ...] = ()
    base: "FamilySpec | None" = None

    KINDS = ("path", "cycle", "complete", "star", "complete_multipartite",
             "caterpillar", "thorn")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise FamilySpecError(f"unknown family kind {self.kind!r}")
        if self.kind == "thorn":
            if self.base is None:
                raise FamilySpecError("thorn spec requires a base family")
            if self.base.kind == "thorn":
                raise FamilySpecError("thorn bases cannot themselves be thorns")
            if len(self.sizes) not in (1, self.base.order()):
                raise FamilySpecError(
                    "thorn pendant counts must be a single uniform value or one per base vertex"
                )
            if any(p < 0 for p in self.sizes):
                raise FamilySpecError("thorn pendant counts must be >= 0")
            return
        if self.base is not None:
            raise FamilySpecError(f"{self.kind} spec takes no base family")
        if self.kind == "caterpillar":
            if not self.sizes:
                raise FamilySpecError("caterpillar spec needs at least one spine vertex")
            if any(p < 0 for p in self.sizes):
                raise FamilySpecError("caterpillar leaf counts must be >= 0")
            return
        if self.kind == "complete_multipartite":
            if len(self.sizes) < 2:
                raise FamilySpecError("complete_multipartite needs at least two parts")
            if any(s < 1 for s in self.sizes):
                raise FamilySpecError("part sizes must be >= 1")
            if list(self.sizes) != sorted(self.sizes):
                raise FamilySpecError("part sizes must be sorted ascending")
            return
        if len(self.sizes) != 1:
            raise FamilySpecError(f"{self.kind} spec takes exactly one size parameter")
        n = self.sizes[0]
        if n < 1:
            raise FamilySpecError(f"{self.kind} order must be >= 1, got {n}")
        if self.kind == "cycle" and n < 3:
            raise FamilySpecError(f"cycle order must be >= 3, got {n}")

    def order(self) -> int:
        if self.kind == "thorn":
            n = self.base.order()
            pendants = self.sizes * n if len(self.sizes) == 1 else self.sizes
            return n + sum(pendants)
        if self.kind == "complete_multipartite":
            return sum(self.sizes)
        if self.kind == "caterpillar":
            return len(self.sizes) + sum(self.sizes)
        return self.sizes[0]

    def label(self) -> str:
        if self.kind == "thorn":
            return f"thorn({self.base.label()};{','.join(map(str, self.sizes))})"
        return f"{self.kind}:{','.join(map(str, self.sizes))}"


def generate(spec: FamilySpec) -> Graph:
    """Build the concrete Graph described by a FamilySpec."""
    kind = spec.kind
    if kind == "path":
        n = spec.sizes[0]
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        n = spec.sizes[0]
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        n = spec.sizes[0]
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "star":
        n = spec.sizes[0]
        return Graph(n, [(0, i) for i in range(1, n)])
    if kind == "complete_multipartite":
        blocks = []
        start = 0
        for s in spec.sizes:
            blocks.append(range(start, start + s))
            start += s
        edges = [
            (u, v)
            for i in range(len(blocks))
            for j in range(i + 1, len(blocks))
            for u in blocks[i]
            for v in blocks[j]
        ]
        return Graph(start, edges)
    if kind == "caterpillar":
        spine = len(spec.sizes)
        edges = [(i, i + 1) for i in range(spine - 1)]
        nxt = spine
        for i, leaves in enumerate(spec.sizes):
            for _ in range(leaves):
                edges.append((i, nxt))
                nxt += 1
        return Graph(nxt, edges)
    if kind == "thorn":
        base = generate(spec.base)
        n = base.order
        pendants = list(spec.sizes) * n if len(spec.sizes) == 1 else list(spec.sizes)
        edges = list(base.edges)
        nxt = n
        for v in range(n):
            for _ in range(pendants[v]):
                edges.append((v, nxt))
                nxt += 1
        return Graph(nxt, edges)
    raise FamilySpecError(f"unknown family kind {kind!r}")


def thorn(base: FamilySpec, m: int) -> FamilySpec:
    """Uniform thorn spec: attach m pendants to every base vertex."""
    return FamilySpec("thorn", (m,), base=base)


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the mini-grammar 'kind:p1,p2,...' with 'thorn(base;m)' nesting one level.

    Extra spellings accepted on the command line: 'multipartite:...' and
    'complete-bipartite:a,b' map to complete_multipartite, and
    'equal-multipartite:n,r' expands to r parts of size n.
    """
    s = text.strip()
    if s.startswith("thorn(") and s.endswith(")"):
        inner = s[len("thorn("):-1]
        if ";" not in inner:
            raise FamilySpecError(f"thorn spec needs 'thorn(base;m)', got {text!r}")
        base_text, _, m_text = inner.rpartition(";")
        base = parse_family_spec(base_text)
        counts = _parse_ints(m_text, text)
        return FamilySpec("thorn", tuple(counts), base=base)
    if ":" not in s:
        raise FamilySpecError(f"family spec needs 'kind:params', got {text!r}")
    kind, _, params = s.partition(":")
    kind = kind.strip()
    values = _parse_ints(params, text)
    if kind == "complete-bipartite":
        # the two sides are unordered, so normalize them
        kind = "complete_multipartite"
        values = sorted(values)
    elif kind == "multipartite":
        kind = "complete_multipartite"
    elif kind == "equal-multipartite":
        if len(values) != 2:
            raise FamilySpecError(f"equal-multipartite needs 'n,r', got {text!r}")
        n, r = values
        if r < 2:
            raise FamilySpecError(f"equal-multipartite needs r >= 2, got {r}")
        kind, values = "complete_multipartite", [n] * r
    return FamilySpec(kind, tuple(values))


def _parse_ints(params: str, original: str) -> list[int]:
    try:
        return [int(p.strip()) for p in params.split(",") if p.strip() != ""]
    except ValueError:
        raise FamilySpecError(f"non-integer parameter in family spec {original!r}") from None
