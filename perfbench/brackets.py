"""The benchmark's own bracket reader and EVALB-style counter.

Kept apart from ``prosoparse`` so that the correctness checks do not trust
the code they check.  The counting rule is plain EVALB: labels compared
exactly, pre-terminals excluded, the root counted, duplicate brackets kept
with their multiplicity.  A tree is a ``(label, children)`` pair and a leaf
is a plain string.
"""

from __future__ import annotations

from collections import Counter


def parse(text: str):
    """Read one bracketed tree such as ``(S (NP (DT the) (NN dog)))``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def node():
        nonlocal pos
        if tokens[pos] != "(":
            pos += 1
            return tokens[pos - 1]
        label = tokens[pos + 1]
        pos += 2
        children = []
        while tokens[pos] != ")":
            children.append(node())
        pos += 1
        return (label, children)

    tree = node()
    if pos != len(tokens) or isinstance(tree, str):
        raise ValueError("not a single bracketed tree: %r" % text[:80])
    return tree


def read_trees(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [parse(line) for line in fh if line.strip()]


def to_text(tree) -> str:
    if isinstance(tree, str):
        return tree
    label, children = tree
    return "(%s %s)" % (label, " ".join(to_text(c) for c in children))


def leaves(tree) -> list[str]:
    if isinstance(tree, str):
        return [tree]
    return [w for child in tree[1] for w in leaves(child)]


def flat(tree):
    """The flat baseline: the gold root label over one pre-terminal per word."""
    return (tree[0], [("XX", [w]) for w in leaves(tree)])


def brackets(tree) -> Counter:
    out: Counter = Counter()

    def walk(node, start: int) -> int:
        if isinstance(node, str):
            return start + 1
        label, children = node
        if len(children) == 1 and isinstance(children[0], str):
            return start + 1
        end = start
        for child in children:
            end = walk(child, end)
        out[(label, start, end)] += 1
        return end

    walk(tree, 0)
    return out


def counts(gold: list, pred: list) -> tuple[int, int, int]:
    """Corpus totals (matched, gold, predicted) over paired trees."""
    if len(gold) != len(pred):
        raise ValueError("%d gold trees but %d predictions" % (len(gold), len(pred)))
    matched = n_gold = n_pred = 0
    for g, p in zip(gold, pred):
        bg, bp = brackets(g), brackets(p)
        matched += sum((bg & bp).values())
        n_gold += sum(bg.values())
        n_pred += sum(bp.values())
    return matched, n_gold, n_pred


def f1(matched: int, n_gold: int, n_pred: int) -> float:
    """Percent F1, with the same operation order as the usual P/R formula so
    that equal counts give a bit-identical float."""
    precision = 100.0 * matched / n_pred if n_pred else 0.0
    recall = 100.0 * matched / n_gold if n_gold else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
