"""Engine configuration: selection DSL, validators, job config.

The selection mini-DSL reproduces the grammar of the reference's hash
selector (``--hashes all,-feature,sift``): comma-separated tokens, category
names expand to their member sets, ``-`` prefix excludes, exclusions with no
inclusions mean "everything minus the exclusions", a lone ``none`` selects
nothing, lookups are case-insensitive
(/root/reference/hashing_config.py:531-585; category tables 486-528;
CLI flag /root/reference/utils.py:115-122). Here it selects lineage
metrics / validators instead of image hashes.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass


def float_0_1(value: str | float) -> float:
    """Validate a float in [0, 1] (graft of /root/reference/utils.py:46-55)."""
    try:
        f = float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"not a float: {value!r}") from exc
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"value {f} not in [0, 1]")
    return f


def positive_int(value: str | int) -> int:
    i = int(value)
    if i <= 0:
        raise ValueError(f"value {i} not positive")
    return i


class SelectionError(ValueError):
    """Unknown name/category in a selection spec."""


def get_selected(
    spec: str,
    names: set[str],
    categories: dict[str, set[str]],
    *,
    all_token: str = "all",
    none_token: str = "none",
) -> set[str]:
    """Parse an include/exclude selection spec into a set of canonical names.

    Grammar (same behavior as /root/reference/hashing_config.py:531-585):

    * tokens are comma-separated, whitespace-trimmed, case-insensitive;
    * a token may be ``all``, ``none``, a category name, or an item name;
    * ``-token`` excludes that token's expansion;
    * if only exclusions are given, the base set is *all* names;
    * a lone ``none`` (with no other inclusions) selects the empty set;
    * unknown tokens raise :class:`SelectionError`.
    """
    lower_names = {n.lower(): n for n in names}
    lower_cats = {c.lower(): set(v) for c, v in categories.items()}

    include: set[str] = set()
    exclude: set[str] = set()
    pinned: set[str] = set()  # explicit item names survive category exclusions
    saw_include_token = False
    saw_none = False

    for raw in spec.split(","):
        tok = raw.strip().lower()
        if not tok:
            continue
        negate = tok.startswith("-")
        if negate:
            tok = tok[1:].strip()
        if tok == none_token:
            if negate:
                raise SelectionError(f"cannot negate {none_token!r}")
            saw_none = True
            continue
        if tok == all_token:
            expansion = set(names)
        elif tok in lower_cats:
            expansion = set(lower_cats[tok])
        elif tok in lower_names:
            expansion = {lower_names[tok]}
            if not negate:
                pinned |= expansion
        else:
            raise SelectionError(f"unknown selection token: {raw.strip()!r}")
        if negate:
            exclude |= expansion
        else:
            include |= expansion
            saw_include_token = True

    if saw_none and not saw_include_token:
        return set()
    base = include if saw_include_token else set(names)
    return (base - exclude) | pinned


@dataclass
class EngineConfig:
    """Job-level knobs (the reference's flag discipline,
    /root/reference/utils.py:114-148, re-targeted at CDC)."""

    num_partitions: int = 16          # P: fixed across cluster sizes; >= 4N actors
    map_task_rows: int = 131_072      # target WAL rows per exchange map task
    epoch_lookahead: int = 1          # map stages pre-submitted beyond current epoch
    merge_mode: InitVar[str] = "cow"  # construction-only alias: "cow" means
                                      # compact_every=1, "mor" keeps it
    compact_every: "int | None" = None
                                      # files per composition (base + deltas)
                                      # before the merge folds it into one; the
                                      # epochs between write only their delta
                                      # (10^10-event path: cost ~ O(delta));
                                      # None: 1 under "cow", 8 under "mor"
    continue_on_error: bool = False   # fail-fast vs keep-going (/root/reference/ir:500-506)
    salt_threshold: int = 50_000      # events/epoch for one conv_id before salt advisory
    salt_factor: int = 4              # hot conversations split into this many sub-routes
    metrics: str = "basic"            # lineage-metric selection (functions/metrics.py DSL)
    # tombstone retention is an explicit watermark, not a config knob:
    # see pipelines.cdc.gc_tombstones / `cli compact --before-lsn`

    def __post_init__(self, merge_mode: str) -> None:
        if merge_mode not in ("cow", "mor"):
            raise ValueError(f"merge_mode must be cow|mor, got {merge_mode!r}")
        if merge_mode == "cow":
            if self.compact_every not in (None, 1):
                raise ValueError(
                    f"compact_every={self.compact_every} needs merge_mode='mor'; "
                    "merge_mode='cow' rewrites the full state every epoch"
                )
            self.compact_every = 1
        elif self.compact_every is None:
            self.compact_every = 8
        self.num_partitions = positive_int(self.num_partitions)
        self.salt_factor = positive_int(self.salt_factor)
        self.compact_every = positive_int(self.compact_every)
        self.epoch_lookahead = int(self.epoch_lookahead)
        if self.epoch_lookahead < 0:
            raise ValueError(
                f"epoch_lookahead must be >= 0, got {self.epoch_lookahead}"
            )
        if self.salt_threshold <= 0:
            raise ValueError("salt_threshold must be positive")


# Default static broadcast tables — the engine analogue of the reference's
# STANDARD_SIZES_MM dimension table (/root/reference/papersize.py:37-65):
# small, read-only config shipped to every worker, never shuffled.
ROLE_VOCABULARY: tuple[str, ...] = ("user", "assistant", "tool", "system")
TOOL_VOCABULARY: tuple[str, ...] = (
    "search", "browser", "python", "bash", "calculator", "retrieval",
    "sql", "editor", "planner", "memory", "vision", "none",
)
