"""A naive reference evaluator for basic graph patterns: the test oracle.

It does the dumbest possible thing: enumerate every triple for every
pattern, nested-loop join, and run the filters at the end.  The planner
in :mod:`repro.rdf.planner` must produce the same solution multiset on
any store, BGP, filter list and initial bindings; the property suites
compare the two with :func:`canon`.
"""

from repro.rdf.terms import Variable


def reference_bgp(store, bgp, filters=(), initial=None):
    """Naive nested-loop join, no ordering, no push-down.

    A filter runs on every solution that binds all of its variables;
    a filter mentioning a variable that no pattern (and no initial
    binding) binds is never evaluated, as in the planner.
    """
    solutions = [dict(initial or {})]
    for pattern in bgp:
        next_solutions = []
        for sol in solutions:
            for s, p, o in store.triples():
                candidate = dict(sol)
                ok = True
                for term, value in ((pattern.s, s), (pattern.p, p),
                                    (pattern.o, o)):
                    if isinstance(term, Variable):
                        if candidate.get(term.name, value) != value:
                            ok = False
                            break
                        candidate[term.name] = value
                    elif term != value:
                        ok = False
                        break
                if ok:
                    next_solutions.append(candidate)
        solutions = next_solutions
    return [
        sol for sol in solutions
        if all(f.evaluate(sol) for f in filters
               if f.variables() <= sol.keys())
    ]


def canon(solutions):
    """Order-free form of a solution multiset, for equality checks."""
    return sorted(
        tuple(sorted((k, str(v)) for k, v in s.items()))
        for s in solutions
    )
