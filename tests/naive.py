"""A maximally naive second route for quasi-identity checking, solution
sets, the witness scans, the bounded pools, the shortlex word order, group
hom enumeration, the action law of a representation and point separation
by a hom family.

Formulas are raw syntax trees evaluated by direct recursion, with no
canonical forms, no reduction, and no reuse of the package's term
arithmetic.  The only shared vocabulary is the Representation container
itself.  Solution sets, violating points and atom masks are found by
visiting every point of the affine space in enumeration order.  Group
homs are checked against the whole multiplication table.  The scan
oracle tries every premise set against every conclusion.  Two oracles are
exceptions to the above: the pool oracle builds each element term by term
through the package's module addition (its words come from raw letter
strings reduced and ordered here), and the rep hom oracle solves its
intertwiner equations, one block per group element, with the elimination
written out here (rref, pivots from the first column rightwards), which
also serves as the linear algebra oracle; the isomorphism oracle takes
the first of those homs with a bijective group hom and a matrix of full
rank.  The action-law oracle multiplies every pair of matrices.  The separation oracle takes its homs
from the package's enumerators, sorted here, and its joint vector kernels
from the package's kernel_of_matrix_family.  The certificate oracle checks
every hom against the whole multiplication table and every element's
matrices, every pair of group elements, and every nonzero vector of the
source, with each product multiplied out here.
"""

from __future__ import annotations

from itertools import combinations, product

from repgeo import (
    FiniteGroup,
    FreeContext,
    GroupAtom,
    InseparabilityWitness,
    ModuleAtom,
    QuasiIdentity,
    enumerate_group_homs,
    enumerate_rep_homs,
    identity_word,
    invert_word,
    module_add,
    module_scale,
    module_term,
    module_zero,
    multiply_words,
    reduce_word,
    ring_from_terms,
    xgen,
)
from repgeo.freemod import atom_key, module_key
from repgeo.geometry import SeparationCertificate
from repgeo.linalg import span_elements
from repgeo.reps import kernel_of_matrix_family

# word trees: ("id",) | ("gen", yname) | ("mul", t, t) | ("inv", t)
# module trees: ("zero",) | ("xgen", xname) | ("add", t, t) | ("neg", t)
#               | ("scale", c, t) | ("act", t, wordtree)
# atom trees: ("meq0", mtree) | ("weq1", wtree)


def naive_eval_word(group, ydict, t):
    tag = t[0]
    if tag == "id":
        return 0
    if tag == "gen":
        return ydict[t[1]]
    if tag == "mul":
        return group.table[naive_eval_word(group, ydict, t[1])][
            naive_eval_word(group, ydict, t[2])
        ]
    if tag == "inv":
        g = naive_eval_word(group, ydict, t[1])
        return next(j for j in range(group.order) if group.table[g][j] == 0)
    raise AssertionError(tag)


def naive_eval_module(rep, xdict, ydict, t):
    p = rep.p
    tag = t[0]
    if tag == "zero":
        return (0,) * rep.dim
    if tag == "xgen":
        return xdict[t[1]]
    if tag == "add":
        a = naive_eval_module(rep, xdict, ydict, t[1])
        b = naive_eval_module(rep, xdict, ydict, t[2])
        return tuple((u + v) % p for u, v in zip(a, b))
    if tag == "neg":
        a = naive_eval_module(rep, xdict, ydict, t[1])
        return tuple((-u) % p for u in a)
    if tag == "scale":
        a = naive_eval_module(rep, xdict, ydict, t[2])
        return tuple((t[1] * u) % p for u in a)
    if tag == "act":
        v = naive_eval_module(rep, xdict, ydict, t[1])
        g = naive_eval_word(rep.group, ydict, t[2])
        m = rep.act[g]
        return tuple(
            sum(v[i] * m[i][j] for i in range(rep.dim)) % p for j in range(rep.dim)
        )
    raise AssertionError(tag)


def naive_eval_atom(rep, xdict, ydict, atom):
    if atom[0] == "meq0":
        return naive_eval_module(rep, xdict, ydict, atom[1]) == (0,) * rep.dim
    return naive_eval_word(rep.group, ydict, atom[1]) == 0


def naive_points(rep, xnames, ynames):
    """Every (x-vectors, y-elements) point, x-major: the x-vectors in
    lexicographic order, then the y-elements."""
    vectors = list(product(range(rep.p), repeat=rep.dim))
    for xvals in product(vectors, repeat=len(xnames)):
        for yvals in product(range(rep.group.order), repeat=len(ynames)):
            yield xvals, yvals


def naive_holds(rep, xnames, ynames, point, atoms):
    xdict, ydict = dict(zip(xnames, point[0])), dict(zip(ynames, point[1]))
    return all(naive_eval_atom(rep, xdict, ydict, a) for a in atoms)


def naive_least_violation(rep, xnames, ynames, premises, conclusion):
    """The first point satisfying the premises and violating the
    conclusion, or None."""
    for pt in naive_points(rep, xnames, ynames):
        if naive_holds(rep, xnames, ynames, pt, premises) and not naive_holds(
            rep, xnames, ynames, pt, [conclusion]
        ):
            return pt
    return None


def naive_fulfills(rep, xnames, ynames, premises, conclusion):
    return naive_least_violation(rep, xnames, ynames, premises, conclusion) is None


def naive_atom_mask(rep, xnames, ynames, atom):
    """Bit i set when the atom holds at the i-th point, x-major."""
    m = 0
    for i, pt in enumerate(naive_points(rep, xnames, ynames)):
        if naive_holds(rep, xnames, ynames, pt, [atom]):
            m |= 1 << i
    return m


def naive_solutions(rep, xnames, ynames, atoms):
    """Every point satisfying all the atoms, x-major."""
    return [
        pt for pt in naive_points(rep, xnames, ynames) if naive_holds(rep, xnames, ynames, pt, atoms)
    ]


def naive_scan_asymmetries(masks_r, full_r, masks_s, full_s, max_premises):
    """Every (premise indices, conclusion index, implied on r, implied on
    s) where the two implications differ, trying each premise set of at
    most max_premises atoms, by size, against each conclusion.  A premise
    set's solutions are the AND of its masks within full."""
    fails = list(zip([full_r & ~m for m in masks_r], [full_s & ~m for m in masks_s]))
    out = []
    for k in range(max_premises + 1):
        for prems in combinations(range(len(masks_r)), k):
            sol_r, sol_s = full_r, full_s
            for i in prems:
                sol_r &= masks_r[i]
                sol_s &= masks_s[i]
            for c, (fail_r, fail_s) in enumerate(fails):
                in_r = not sol_r & fail_r
                in_s = not sol_s & fail_s
                if in_r != in_s:
                    out.append((prems, c, in_r, in_s))
    return out


def naive_signatures(masks, npoints):
    """The distinct point signatures: per point, the set of atom indices
    whose mask holds there."""
    return {
        frozenset(c for c, m in enumerate(masks) if m >> i & 1) for i in range(npoints)
    }


def naive_closed_sets(signatures, natoms):
    """Every intersection of a set of signatures, the empty one being all
    natoms atoms."""
    family = {frozenset(range(natoms))}
    for sig in signatures:
        family |= {f & sig for f in family}
    return family


def naive_bounded_words(ctx, max_len):
    """Every reduced word of length <= max_len in shortlex order: each raw
    string of letters (y-index, +1 or -1) is reduced on a stack, and the
    results are ordered by length, then letter by letter, by y-index with
    + before -.  reduce_word only converts the results."""
    letters = [(v, e) for v in range(len(ctx.yvars)) for e in (1, -1)]
    reduced = set()
    for n in range(max_len + 1):
        for raw in product(letters, repeat=n):
            stack = []
            for v, e in raw:
                if stack and stack[-1] == (v, -e):
                    stack.pop()
                else:
                    stack.append((v, e))
            reduced.add(tuple(stack))
    ordered = sorted(reduced, key=lambda w: (len(w), [(v, -e) for v, e in w]))
    return [reduce_word(ctx, w) for w in ordered]


def naive_word_key(w):
    """The shortlex key with every run expanded into its letters: length,
    then letter by letter, by y-index with + before -."""
    expanded = [(v, e < 0) for v, e in w.letters for _ in range(abs(e))]
    return (len(expanded), expanded)


def naive_bounded_module_elements(ctx, field, bounds):
    """The bounded pool built term by term through module addition, with
    duplicates dropped and the result sorted canonically."""
    words = naive_bounded_words(ctx, bounds.max_word_len)
    singles = [(x, w, c) for x in range(len(ctx.xvars)) for w in words for c in range(1, field.p)]
    out = []
    for k in range(1, bounds.max_terms + 1):
        for picked in combinations(singles, k):
            if len({(x, w) for x, w, _ in picked}) != k:
                continue
            elem = module_zero(ctx, field)
            for x, w, c in picked:
                term = module_term(ctx, field, x, ring_from_terms(ctx, field, [(w, c)]))
                elem = module_add(elem, term)
            if not elem.is_zero():
                out.append(elem)
    return sorted(set(out), key=module_key)


def naive_bounded_atoms(ctx, field, bounds):
    atoms = [GroupAtom(w) for w in naive_bounded_words(ctx, bounds.max_word_len)]
    atoms += [ModuleAtom(u) for u in naive_bounded_module_elements(ctx, field, bounds)]
    return sorted(atoms, key=atom_key)


# -- conversion of trees to the package's canonical objects -----------------


def word_tree_to_canonical(ctx: FreeContext, t):
    tag = t[0]
    if tag == "id":
        return identity_word(ctx)
    if tag == "gen":
        return reduce_word(ctx, [(ctx.yindex(t[1]), 1)])
    if tag == "mul":
        return multiply_words(
            word_tree_to_canonical(ctx, t[1]), word_tree_to_canonical(ctx, t[2])
        )
    if tag == "inv":
        return invert_word(word_tree_to_canonical(ctx, t[1]))
    raise AssertionError(tag)


def module_tree_to_canonical(ctx: FreeContext, field, t):
    from repgeo import module_act

    tag = t[0]
    if tag == "zero":
        return module_zero(ctx, field)
    if tag == "xgen":
        return xgen(ctx, field, ctx.xindex(t[1]))
    if tag == "add":
        return module_add(
            module_tree_to_canonical(ctx, field, t[1]),
            module_tree_to_canonical(ctx, field, t[2]),
        )
    if tag == "neg":
        return module_scale(-1, module_tree_to_canonical(ctx, field, t[1]))
    if tag == "scale":
        return module_scale(t[1], module_tree_to_canonical(ctx, field, t[2]))
    if tag == "act":
        w = word_tree_to_canonical(ctx, t[2])
        return module_act(
            module_tree_to_canonical(ctx, field, t[1]),
            ring_from_terms(ctx, field, [(w, 1)]),
        )
    raise AssertionError(tag)


def atom_tree_to_canonical(ctx: FreeContext, field, atom):
    if atom[0] == "meq0":
        return ModuleAtom(module_tree_to_canonical(ctx, field, atom[1]))
    return GroupAtom(word_tree_to_canonical(ctx, atom[1]))


def canonical_to_atom_tree(ctx: FreeContext, atom):
    """The raw tree of a canonical atom, read off its letters and terms
    one by one, with no arithmetic: the oracle evaluates it from scratch."""

    def word(w):
        t = ("id",)
        for v, e in w.letters:
            g = ("gen", ctx.yvars[v])
            for _ in range(abs(e)):
                t = ("mul", t, g if e > 0 else ("inv", g))
        return t

    if isinstance(atom, GroupAtom):
        return ("weq1", word(atom.word))
    t = ("zero",)
    for i, r in atom.element.parts:
        for w, c in r.terms:
            t = ("add", t, ("scale", c, ("act", ("xgen", ctx.xvars[i]), word(w))))
    return ("meq0", t)


def trees_to_qid(ctx: FreeContext, field, premises, conclusion) -> QuasiIdentity:
    return QuasiIdentity(
        tuple(atom_tree_to_canonical(ctx, field, a) for a in premises),
        atom_tree_to_canonical(ctx, field, conclusion),
    )


# -- random tree generation --------------------------------------------------


def random_word_tree(rng, ynames, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return ("gen", rng.choice(ynames)) if rng.random() < 0.8 else ("id",)
    k = rng.random()
    if k < 0.5:
        return ("mul", random_word_tree(rng, ynames, depth - 1), random_word_tree(rng, ynames, depth - 1))
    return ("inv", random_word_tree(rng, ynames, depth - 1))


def random_module_tree(rng, xnames, ynames, p, depth=3):
    if depth == 0 or rng.random() < 0.25:
        return ("xgen", rng.choice(xnames)) if rng.random() < 0.9 else ("zero",)
    k = rng.random()
    sub = random_module_tree(rng, xnames, ynames, p, depth - 1)
    if k < 0.35:
        return ("add", sub, random_module_tree(rng, xnames, ynames, p, depth - 1))
    if k < 0.5:
        return ("neg", sub)
    if k < 0.65:
        return ("scale", rng.randrange(p), sub)
    return ("act", sub, random_word_tree(rng, ynames, depth - 1))


def random_atom_tree(rng, xnames, ynames, p):
    if rng.random() < 0.6:
        return ("meq0", random_module_tree(rng, xnames, ynames, p))
    return ("weq1", random_word_tree(rng, ynames))


def random_qid_trees(rng, xnames, ynames, p, max_premises=2):
    n = rng.randint(0, max_premises)
    premises = [random_atom_tree(rng, xnames, ynames, p) for _ in range(n)]
    conclusion = random_atom_tree(rng, xnames, ynames, p)
    return premises, conclusion


# -- group homomorphisms by the full multiplication table ---------------------


def naive_generating_words(g):
    """Greedy generators (least element not yet reached) and, per element,
    a word of generator positions whose left-to-right product is it."""
    gens = []
    words = [None] * g.order
    words[0] = []
    known = {0}
    while len(known) < g.order:
        gens.append(min(i for i in range(g.order) if i not in known))
        frontier = list(known)
        while frontier:
            nxt = []
            for e in frontier:
                for pos, s in enumerate(gens):
                    ne = g.table[e][s]
                    if ne not in known:
                        known.add(ne)
                        words[ne] = words[e] + [pos]
                        nxt.append(ne)
            frontier = nxt
    return gens, words


def naive_group_homs(g, h):
    """Sorted image tables of all homs G -> H: every tuple of generator
    images, extended along the words and checked against the whole
    |G|^2 multiplication table."""
    gens, words = naive_generating_words(g)
    found = set()
    for imgs in product(range(h.order), repeat=len(gens)):
        image = []
        for w in words:
            acc = 0
            for pos in w:
                acc = h.table[acc][imgs[pos]]
            image.append(acc)
        if all(
            image[g.table[i][j]] == h.table[image[i]][image[j]]
            for i in range(g.order)
            for j in range(g.order)
        ):
            found.add(tuple(image))
    return sorted(found)


# -- linear algebra over GF(p), pivots from the first column rightwards -------


def rref(p, rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [list(x % p for x in r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(p, rows):
    return len(rref(p, rows)[1])


def nullspace(p, rows, ncols):
    """Basis of {x : M x = 0} for the equation rows M: one vector per free
    column of the rref, 1 there, 0 at the other free columns, in column
    order."""
    red, pivots = rref(p, rows)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [0] * ncols
            v[fc] = 1
            for row, pc in zip(red, pivots):
                v[pc] = -row[fc] % p
            basis.append(tuple(v))
    return basis


# -- representation homomorphisms, equations at every group element ----------


def naive_rep_homs(r, s):
    """(beta image table, matrix) of every rep hom R -> S, in the package's
    order: for each group hom beta (naive_group_homs) the equations
    act_r(g) . A = A . act_s(beta(g)) are written for every element g of
    R's group, and the solutions are listed in sorted order."""
    p = r.p
    nunk = r.dim * s.dim
    out = []
    for image in naive_group_homs(r.group, s.group):
        rows = []
        for g in range(r.group.order):
            ra = r.act[g]
            sa = s.act[image[g]]
            for i in range(r.dim):
                for j in range(s.dim):
                    row = [0] * nunk
                    for k in range(r.dim):
                        row[k * s.dim + j] = (row[k * s.dim + j] + ra[i][k]) % p
                    for l in range(s.dim):
                        row[i * s.dim + l] = (row[i * s.dim + l] - sa[l][j]) % p
                    rows.append(row)
        for e in sorted(span_elements(p, nullspace(p, rows, nunk), nunk)):
            m = tuple(tuple(e[i * s.dim : (i + 1) * s.dim]) for i in range(r.dim))
            out.append((image, m))
    return out


def naive_rep_isomorphic(r, s):
    """The first (beta image table, matrix) of naive_rep_homs whose beta is
    bijective and whose matrix has full rank, or None."""
    if r.dim != s.dim or r.group.order != s.group.order:
        return None
    isos = ((image, m) for image, m in naive_rep_homs(r, s) if len(set(image)) == len(image))
    return next(((image, m) for image, m in isos if rank(r.p, m) == r.dim), None)


# -- the action law at every pair of elements ---------------------------------


def naive_action_defect(group, act, p):
    """The first (g, h), in row-major order, as element names, at which
    act[g] . act[h] != act[g h] over GF(p), or None: every pair is tried,
    with the matrix product written out.  act is index-aligned with the
    group's elements."""
    n = len(act[0])
    for g in range(group.order):
        for h in range(group.order):
            prod = [
                [sum(act[g][i][k] * act[h][k][j] for k in range(n)) % p for j in range(n)]
                for i in range(n)
            ]
            if prod != [[x % p for x in row] for row in act[group.table[g][h]]]:
                return group.names[g], group.names[h]
    return None


# -- point separation by the whole hom list, pair by pair ---------------------


def naive_separate(source, target):
    """The greedy separation certificate from the full hom list, sorted by
    image table (then matrix): a hom is chosen when it separates a pair of
    the remaining pair set, or when kernel_of_matrix_family, run again for
    every hom, shows it lowers the joint vector kernel's dimension."""
    is_rep = not isinstance(source, FiniteGroup)
    if is_rep:
        group, kdim, word = source.group, source.dim, "group pair "
        homs = enumerate_rep_homs(source, target)
        homs.sort(key=lambda h: (h.grouphom.image, h.matrix))
    else:
        group, kdim, word = source, 0, ""
        homs = sorted(enumerate_group_homs(source, target), key=lambda h: h.image)
    pairs = set(combinations(range(group.order), 2))
    chosen, notes, mats = [], [], []
    for h in homs:
        image = h.grouphom.image if is_rep else h.image
        new = {(i, j) for i, j in pairs if image[i] != image[j]}
        nk = len(kernel_of_matrix_family(source.p, mats + [h.matrix], source.dim)) if is_rep else 0
        if new or nk < kdim:
            chosen.append(h)
            mats += [h.matrix] if is_rep else []
            for i, j in sorted(new):
                a, b = group.names[i], group.names[j]
                notes.append(f"hom {len(chosen) - 1} separates {word}({a}, {b})")
            if nk < kdim:
                notes.append(f"hom {len(chosen) - 1} cuts joint kernel to dim {nk}")
            pairs -= new
            kdim = nk
        if not pairs and kdim == 0:
            break
    if pairs:
        i, j = min(pairs)
        return InseparabilityWitness("forward", "group", (group.names[i], group.names[j]))
    if kdim:
        v = next(v for v in kernel_of_matrix_family(source.p, mats, source.dim) if any(v))
        return InseparabilityWitness("forward", "vector", (v, (0,) * source.dim))
    return SeparationCertificate(source, target, tuple(chosen), tuple(notes))


def naive_validate_separation(cert):
    """Whether cert holds by definition: each hom respects every product
    of its group and, for representations, intertwines every element's
    action; the homs together separate every pair of group elements and
    map every nonzero vector of the source to a nonzero vector."""
    is_rep = not isinstance(cert.source, FiniteGroup)
    group, codomain = (cert.source.group, cert.target.group) if is_rep else (cert.source, cert.target)
    images = [h.grouphom.image if is_rep else h.image for h in cert.homs]
    n = group.order
    for image in images:
        if len(image) != n or not all(0 <= x < codomain.order for x in image):
            return False
        if any(image[group.table[i][j]] != codomain.table[image[i]][image[j]]
               for i in range(n) for j in range(n)):
            return False
    if any(all(image[i] == image[j] for image in images) for i, j in combinations(range(n), 2)):
        return False
    if not is_rep:
        return True
    r, s = cert.source, cert.target
    if r.field != s.field:
        return False
    p = r.p

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(len(b[0]))]
                for i in range(len(a))]

    for h in cert.homs:
        if any(mul(r.act[g], h.matrix) != mul(h.matrix, s.act[h.grouphom.image[g]]) for g in range(n)):
            return False
    return all(any(any(row) for h in cert.homs for row in mul([v], h.matrix))
               for v in product(range(p), repeat=r.dim) if any(v))
