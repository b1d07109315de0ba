"""Reference residue tables for the tests: whole components straight from
the residues of their coefficients, independent of the scan kernel's own
table builder, and their split by the power of the last variable."""

from polarmap.fields import residue


def residue_tables(rational_map, p):
    """One (exponent rows, coefficients) table per whole component, terms
    in exponent order, those whose residue is 0 dropped."""
    tables = []
    for comp in rational_map.components:
        terms = {e: residue(c, p) for e, c in sorted(comp.terms.items())}
        terms = {e: r for e, r in terms.items() if r}
        tables.append((list(terms), list(terms.values())))
    return tables


def split_tables(tables, n):
    """(prefix tables, powers), the layout oracle._component_tables gives:
    one table over x_0..x_{n-1} per (component j, power k of x_n) that
    occurs, and powers[j] mapping each k to its table's position."""
    prefix_tables, powers = [], []
    for exps, coeffs in tables:
        by_power = {}
        for e, c in zip(exps, coeffs):
            rows = by_power.setdefault(e[n], ([], []))
            rows[0].append(e[:n])
            rows[1].append(c)
        powers.append({k: len(prefix_tables) + i
                       for i, k in enumerate(sorted(by_power))})
        prefix_tables.extend(by_power[k] for k in sorted(by_power))
    return prefix_tables, powers
