import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lin2complex.complex2 import (
    ComplexStructureError,
    BOUNDARY,
    Complex2,
    EDGE_BOUNDARY,
    EDGE_INTERIOR,
    INTERIOR,
    LOOP,
    boundary1,
    boundary2,
    laplacian1,
    sphere_cells,
    validate,
)
from lin2complex.b2_reduce import reduce_da_to_b2

from _gen import (
    dense_nullity,
    dense_rank,
    from_triangles,
    random_da_instance,
    triangulate_punctured_sphere,
    triangulate_tube,
)

DISK_TRIANGLES = [(1, 4, 2), (2, 4, 3), (1, 3, 4)]
DISK_EDGE_ORDER = [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)]
DISK_D2 = np.array([
    [-1, 0, 0],
    [0, -1, 0],
    [0, 0, 1],
    [1, 0, -1],
    [-1, 1, 0],
    [0, -1, 1],
], dtype=float)


def disk_complex() -> Complex2:
    return from_triangles(5, DISK_TRIANGLES, DISK_EDGE_ORDER)


@pytest.mark.parametrize("b,triangles,edges", [(1, 1, 3), (2, 6, 12), (5, 21, 39)])
def test_sphere_counts_small(b, triangles, edges):
    K = triangulate_punctured_sphere(b)
    assert K.n_triangles == triangles
    assert K.n_edges == edges
    assert K.n_vertices == 3 * b


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60))
def test_sphere_counts_formula(b):
    K = triangulate_punctured_sphere(b)
    assert (K.n_triangles, K.n_edges, K.n_vertices) == (5 * b - 4, 9 * b - 6, 3 * b)
    assert validate(K).ok


def test_sphere_boundary_components_have_three_edges():
    for b in (1, 2, 4, 7):
        K = triangulate_punctured_sphere(b)
        boundary_edges = [e for e in K.edges if e.kind == EDGE_BOUNDARY]
        assert len(boundary_edges) == 3 * b
        cycles = sphere_cells(b)[2]
        assert len(cycles) == b


def iterative_sphere_cells(n_holes: int):
    """The sphere construction as a loop, the oracle of the closed form:
    start from one triangle (a disk), then repeatedly replace the first
    triangle of the last annulus by an annulus around a new hole."""
    triangles = [(0, 1, 2)]
    holes = [(0, 1, 2)]
    n_vertices = 3
    host = 0
    for _ in range(n_holes - 1):
        a, b, c = triangles.pop(host)
        p, q, r = n_vertices, n_vertices + 1, n_vertices + 2
        n_vertices += 3
        host = len(triangles)
        triangles.extend([(a, b, p), (b, c, r), (c, a, q), (a, p, q), (p, b, r), (c, q, r)])
        holes.append((p, q, r))
    return n_vertices, triangles, holes


def test_closed_form_sphere_matches_the_iterative_construction():
    for h in range(1, 65):
        n_vertices, triangles, holes = iterative_sphere_cells(h)
        got = sphere_cells(h)
        assert got[0] == n_vertices, h
        assert np.array_equal(got[1], np.array(triangles)), h
        assert np.array_equal(got[2], np.array(holes)), h


def test_sphere_cells_lays_out_many_spheres_one_after_another():
    counts = [3, 1, 2, 7, 1, 1, 4]
    n_vertices, triangles, holes = sphere_cells(counts)
    offset, want_tri, want_holes = 0, [], []
    for h in counts:
        n, tris, cycles = iterative_sphere_cells(h)
        want_tri.append(np.array(tris) + offset)
        want_holes.append(np.array(cycles) + offset)
        offset += n
    assert n_vertices == offset
    assert np.array_equal(triangles, np.concatenate(want_tri))
    assert np.array_equal(holes, np.concatenate(want_holes))
    empty = sphere_cells([])
    assert empty[0] == 0 and empty[1].shape == (0, 3) and empty[2].shape == (0, 3)
    with pytest.raises(ValueError):
        sphere_cells([2, 0])


def test_sphere_rejects_zero_boundary():
    with pytest.raises(ValueError):
        triangulate_punctured_sphere(0)


def test_sphere_identical_orientation_sense():
    # every interior edge of the patch gets opposite induced signs, which is
    # what "all triangles share one orientation" means combinatorially
    K = triangulate_punctured_sphere(4)
    d2 = boundary2(K).to_dense()
    for eid, e in enumerate(K.edges):
        if e.kind == EDGE_INTERIOR:
            assert sorted(d2[eid][d2[eid] != 0].tolist()) == [-1.0, 1.0]


@pytest.mark.parametrize("match", ["opposite", "identical"])
def test_tube_counts(match):
    K = triangulate_tube(match)
    assert K.n_triangles == 6
    assert K.n_edges == 12
    assert validate(K).ok


@pytest.mark.parametrize("match", ["opposite", "identical"])
def test_tube_interior_rows_signed(match):
    K = triangulate_tube(match)
    d2 = boundary2(K).to_dense()
    for eid, e in enumerate(K.edges):
        if e.kind == EDGE_INTERIOR:
            assert sorted(d2[eid][d2[eid] != 0].tolist()) == [-1.0, 1.0]


def test_tube_boundary_traversal_signs():
    # the tube always traverses the sphere-side cycle against its orientation;
    # the loop side follows it in the opposite case and opposes it in the
    # identical case, so in the identical case both boundary triples are
    # traversed the same way
    hole, loop = (0, 1, 2), (3, 4, 5)
    for match, loop_sign in (("opposite", 1.0), ("identical", -1.0)):
        K = triangulate_tube(match, hole, loop)
        d2 = boundary2(K).to_dense()
        for eid, e in enumerate(K.edges):
            if e.kind != EDGE_BOUNDARY:
                continue
            (value,) = d2[eid][d2[eid] != 0]
            if {e.tail, e.head} <= set(hole):
                assert value == -1.0
            else:
                assert value == loop_sign


def test_tube_rejects_overlapping_triples():
    with pytest.raises(ValueError):
        triangulate_tube("opposite", (0, 1, 2), (2, 3, 4))
    with pytest.raises(ValueError):
        triangulate_tube("sideways")


def test_boundary2_golden_disk():
    d2 = boundary2(disk_complex())
    assert np.array_equal(d2.to_dense(), DISK_D2)
    assert d2.integer_exact


def test_boundary2_single_triangle():
    K = from_triangles(3, [(0, 1, 2)])
    col = boundary2(K).to_dense()
    assert col.shape == (3, 1)
    assert sorted(np.abs(col).ravel().tolist()) == [1.0, 1.0, 1.0]


def test_boundary2_missing_edge_rejected():
    K = disk_with(tri=DISK_TRIANGLES + [(0, 1, 2)])
    with pytest.raises(ComplexStructureError):
        boundary2(K)


def test_boundary1_single_edge():
    K = from_triangles(3, [(0, 1, 2)])
    d1 = boundary1(K).to_dense()
    (eid,) = np.flatnonzero(np.all(np.sort(K.edge, axis=1) == [0, 1], axis=1))
    e = K.edges[eid]
    col = d1[:, eid]
    assert col[e.tail] == -1.0 and col[e.head] == 1.0


def test_chain_identity_disk():
    K = disk_complex()
    prod = boundary1(K).to_int_csr() @ boundary2(K).to_int_csr()
    prod.eliminate_zeros()
    assert prod.nnz == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_chain_identity_constructed_complexes(seed):
    rng = np.random.default_rng(seed)
    sys, b = random_da_instance(rng, int(rng.integers(2, 7)), int(rng.integers(0, 5)))
    P = reduce_da_to_b2(sys, b)
    prod = boundary1(P.K).to_int_csr() @ P.d2.to_int_csr()
    prod.eliminate_zeros()
    assert prod.nnz == 0
    assert validate(P.K).ok


def test_laplacian_graph_case():
    # no triangles: L1 = d1^T d1
    K = make_complex(3, [], [(0, 1), (0, 2), (1, 2)], "BBB")
    d1 = boundary1(K).to_dense()
    assert np.array_equal(laplacian1(K).to_dense(), d1.T @ d1)


def test_laplacian_psd_disk():
    L = laplacian1(disk_complex()).to_dense()
    assert np.allclose(L, L.T)
    assert np.linalg.eigvalsh(L).min() >= -1e-10


def test_laplacian_harmonic_dimension():
    for K in (disk_complex(), triangulate_punctured_sphere(3), triangulate_tube("opposite")):
        L = laplacian1(K).to_dense()
        d1 = boundary1(K).to_dense()
        d2 = boundary2(K).to_dense()
        ker_l1 = L.shape[0] - dense_rank(L)
        assert ker_l1 == dense_nullity(d1) - dense_rank(d2)


def test_validate_ok():
    assert validate(disk_complex()).ok


def test_validate_detects_flipped_triangle():
    a, b, c = DISK_TRIANGLES[1]
    K = disk_with(tri=[DISK_TRIANGLES[0], (a, c, b), DISK_TRIANGLES[2]])
    report = validate(K)
    assert not report.ok
    assert "signs" in report.violation


def test_group_interior_nullity_is_one():
    rng = np.random.default_rng(23)
    sys, b = random_da_instance(rng, 4, 3)
    P = reduce_da_to_b2(sys, b)
    d2 = P.d2.to_dense()
    groups = P.K.tri_group
    interior = np.array([e.kind == EDGE_INTERIOR for e in P.K.edges])
    for g in range(P.n_vars):
        cols = np.where(groups == g)[0]
        # an interior edge lies in two triangles of one group
        rows = np.flatnonzero(interior & np.any(d2[:, cols] != 0, axis=1))
        M = d2[np.ix_(rows, cols)]
        assert dense_nullity(M) == 1
        # spanned by the all-ones flow
        assert np.allclose(M @ np.ones(len(cols)), 0.0)


# -- validate: one test per violation --------------------------------------------

KINDS = {"L": LOOP, "I": INTERIOR, "B": BOUNDARY}
DISK_KINDS = "BBBIII"


def make_complex(n_vertices, tri, edges, kinds, tri_group=None, loops=()) -> Complex2:
    """A complex given column by column: ``kinds`` holds one letter per edge
    (L, I, B) and ``loops`` the three loop-edge ids of each equation."""
    tri_group = [0] * len(tri) if tri_group is None else tri_group
    return Complex2(n_vertices, tri, tri_group, edges, [KINDS[k] for k in kinds], loops=loops)


def disk_with(**changes) -> Complex2:
    spec = dict(n_vertices=5, tri=DISK_TRIANGLES, edges=DISK_EDGE_ORDER, kinds=DISK_KINDS)
    spec.update(changes)
    return make_complex(**spec)


def violation(K) -> str:
    report = validate(K)
    assert not report.ok
    return report.violation


def test_make_complex_reproduces_disk():
    K = disk_with()
    assert validate(K).ok
    assert np.array_equal(boundary2(K).to_dense(), DISK_D2)


def test_validate_repeated_vertex():
    tri = [DISK_TRIANGLES[0], (2, 2, 3), DISK_TRIANGLES[2]]
    assert violation(disk_with(tri=tri)) == "triangle 1 has repeated vertices"


def test_validate_unknown_vertex():
    tri = DISK_TRIANGLES[:2] + [(1, 3, 7)]
    assert violation(disk_with(tri=tri)) == "triangle 2 references an unknown vertex"


def test_validate_missing_edge():
    tri = DISK_TRIANGLES[:2] + [(0, 1, 2)]
    assert violation(disk_with(tri=tri)) == "triangle 2 references missing edge (0, 1)"


def test_validate_duplicate_edge():
    # the side pass reports the duplicate that _lookup meets, which used to
    # raise out of validate
    edges = DISK_EDGE_ORDER[:-1] + [DISK_EDGE_ORDER[0]]
    assert violation(disk_with(edges=edges)) == "duplicate edge (1, 2)"


def test_boundary2_raises_the_violation_of_validate():
    tri = DISK_TRIANGLES[:2]
    for K in (disk_with(tri=tri + [(0, 1, 2)]), disk_with(tri=tri + [(1, 3, 7)]),
              disk_with(tri=tri + [(3, 3, 1)]),
              disk_with(edges=DISK_EDGE_ORDER[:-1] + [DISK_EDGE_ORDER[0]])):
        with pytest.raises(ComplexStructureError) as exc:
            boundary2(K)
        assert str(exc.value) == violation(K)


def test_validate_returns_d2_when_a_later_check_fails():
    # every side is an edge, so the side pass builds d2 whatever fails next
    for K in (disk_with(loops=[(0, 1, 2)]), disk_with(kinds="IBBIII")):
        report = validate(K)
        assert not report.ok and np.array_equal(report.d2.to_dense(), DISK_D2)
    assert validate(disk_with(tri=DISK_TRIANGLES[:2] + [(0, 1, 2)])).d2 is None


def test_validate_inconsistent_loop_table():
    K = disk_with(loops=[(0, 1, 2)])
    assert violation(K) == "loop-edge table of equation 0 is inconsistent"
    # loop edge 2 listed by two equations
    K = disk_with(kinds="LLLLLI", loops=[(0, 1, 2), (3, 4, 2)])
    assert violation(K) == "loop-edge table of equation 0 is inconsistent"


def test_validate_interior_edge_count():
    assert violation(disk_with(kinds="IBBIII")) == "interior edge 0 lies in 1 triangles"


def test_validate_interior_equal_signs():
    a, b, c = DISK_TRIANGLES[1]
    tri = [DISK_TRIANGLES[0], (a, c, b), DISK_TRIANGLES[2]]
    assert violation(disk_with(tri=tri)) == "interior edge 4 has equal induced signs"


def test_validate_boundary_edge_count():
    assert violation(disk_with(kinds="BBBBII")) == "boundary edge 3 lies in 2 triangles"


def test_validate_loop_edge_count():
    K = disk_with(kinds="LLLIII", loops=[(0, 1, 2)])
    assert violation(K) == "loop edge 0 lies in 1 triangles"


def test_validate_unbalanced_loop_signs():
    a, b, c = DISK_TRIANGLES[1]
    tri = [DISK_TRIANGLES[0], (a, c, b), DISK_TRIANGLES[2]]
    K = disk_with(tri=tri, kinds="BBBLLL", loops=[(3, 4, 5)])
    assert violation(K) == "loop edge 4 has unbalanced induced signs"


def test_validate_disconnected_group():
    K = make_complex(6, [(0, 1, 2), (3, 4, 5)],
                     [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], "BBBBBB")
    assert violation(K) == "group 0 is not connected over interior edges"


def test_validate_builds_no_triangle_adjacency(monkeypatch):
    from lin2complex import complex2

    def forbidden(*args, **kwargs):
        pytest.fail("validate built the triangle adjacency")

    monkeypatch.setattr(complex2, "triangle_adjacency", forbidden)
    assert validate(disk_complex()).ok
    K = make_complex(6, [(0, 1, 2), (3, 4, 5)],
                     [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], "BBBBBB")
    assert violation(K) == "group 0 is not connected over interior edges"
    P = reduce_da_to_b2(*random_da_instance(np.random.default_rng(3), 6, 4))
    assert validate(P.K).ok


def test_validate_builds_no_boundary1(monkeypatch):
    # d1 d2 = 0 holds for validate's d2 by construction, so validate has no
    # d1 to build
    from lin2complex import complex2

    def forbidden(*args, **kwargs):
        pytest.fail("validate built boundary1")

    monkeypatch.setattr(complex2, "boundary1", forbidden)
    assert validate(disk_complex()).ok
    P = reduce_da_to_b2(*random_da_instance(np.random.default_rng(3), 6, 4))
    assert validate(P.K).ok


def _stored_otherwise(K: Complex2, flip: np.ndarray, new_id: np.ndarray) -> Complex2:
    """K with the edges where ``flip`` holds stored the other way round, and
    edge e renumbered ``new_id[e]``; the loop table follows the ids."""
    edge, kind = np.empty_like(K.edge), np.empty_like(K.kind)
    edge[new_id] = np.where(flip[:, None], K.edge[:, ::-1], K.edge)
    kind[new_id] = K.kind
    return Complex2(K.n_vertices, K.tri, K.tri_group, edge, kind, loops=new_id[K.loops])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_validated_d2_is_a_cycle_however_the_edges_are_stored(seed):
    # validate does not check d1 d2 = 0: its d2 signs each triangle's sides
    # along the stored edges, so d1 sends every column to zero whatever
    # direction and id each edge is stored with
    rng = np.random.default_rng(seed)
    sys, b = random_da_instance(rng, int(rng.integers(2, 7)), int(rng.integers(0, 5)))
    built = (reduce_da_to_b2(sys, b).K, disk_complex(),
             triangulate_punctured_sphere(int(rng.integers(1, 6))),
             triangulate_tube(("opposite", "identical")[int(rng.integers(2))]))
    for K in built:
        m = K.n_edges
        flip, new_id = rng.random(m) < 0.5, rng.permutation(m)
        for altered in (K, _stored_otherwise(K, flip, np.arange(m)),
                        _stored_otherwise(K, np.zeros(m, bool), new_id),
                        _stored_otherwise(K, flip, new_id)):
            report = validate(altered)
            assert report.ok, report.violation
            product = boundary1(altered).to_int_csr() @ report.d2.to_int_csr()
            product.eliminate_zeros()
            assert product.nnz == 0
