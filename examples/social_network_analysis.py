"""Trust analysis over an Advogato-like social network.

The paper's intro motivates RPQs with social-network scenarios; its
evaluation uses Advogato, a trust network whose edges carry one of
three certification levels (master / journeyer / apprentice).  This
example runs the kinds of trust queries the dataset was collected for:

* direct and transitive endorsement,
* "trust laundering" (weakly certified users reachable only through
  apprentice edges),
* co-certification (users endorsed by the same master),
* bounded-hop trust neighborhoods.

Run:  python examples/social_network_analysis.py
"""

import time

from repro import GraphDatabase
from repro.baselines import automaton_eval
from repro.graph.generators import advogato_like
from repro.graph.stats import summarize
from repro.rpq.parser import parse

SEED = 42


def main() -> None:
    graph = advogato_like(nodes=400, edges=2800, seed=SEED)
    print(summarize(graph).format())
    print()

    db = GraphDatabase(graph, k=2)
    print("index:", db.index)
    print()

    def show(title: str, query: str, method: str = "minsupport", limit: int = 5):
        result = db.query(query, method=method)
        print(f"{title}\n  query:  {query}")
        print(f"  answer: {len(result)} pairs "
              f"({result.seconds * 1000:.2f} ms, {result.method})")
        for pair in sorted(result.pairs)[:limit]:
            print(f"    {pair[0]} -> {pair[1]}")
        if len(result) > limit:
            print(f"    ... and {len(result) - limit} more")
        print()

    # Who is certified at master level by someone certified at master level?
    show("Two-step master endorsement", "master/master")

    # Endorsement at any level, two hops.
    show(
        "Any certification, exactly two hops",
        "(master|journeyer|apprentice){2}",
    )

    # Co-certification: pairs endorsed by the same master-level certifier.
    show("Endorsed by the same master (co-certification)", "^master/master")

    # Chains that *downgrade*: master endorsement followed by apprentice.
    show("Trust downgrade chains", "master/apprentice")

    # Bounded transitive trust: who can reach whom through 1-3 journeyer
    # certifications (the paper's bounded-recursion workhorse)?
    show("Journeyer trust within 3 hops", "journeyer{1,3}")

    # Full transitive closure of master trust via the fixpoint fallback.
    show("Unbounded master reachability", "master+")

    # Compare the four plan strategies on one query, and beside them the
    # automaton baseline: a graph x NFA product search from every node.
    query = "master/journeyer/apprentice"
    print(f"method comparison on {query!r}:")
    for method in ("naive", "semi-naive", "minsupport", "minjoin"):
        result = db.query(query, method=method)
        print(f"  {method:<12} {result.seconds * 1000:8.2f} ms  "
              f"({len(result)} pairs)")
    started = time.perf_counter()
    pairs = automaton_eval.evaluate(graph, parse(query))
    print(f"  {'automaton':<12} {(time.perf_counter() - started) * 1000:8.2f} ms  "
          f"({len(pairs)} pairs)")


if __name__ == "__main__":
    main()
