import math

import numpy as np
import pytest

from leveltopo import (SIGMOID, Classification, Window, analyze_level, classify_component,
                       component_encloses, extract_components, init_weights,
                       link_components, marching_squares, network_scalar_fn,
                       region_components, sample_grid)
from leveltopo.contours import LEVEL_NUDGE, _in_frame_cells, band_oracle_compare, boundary_tol
from leveltopo.fields import (RegionComponent, RegionComponents, ScalarField,
                              sample_noncritical_levels)


def classify(comp, fld):
    """The classification of ``comp``, a component of ``fld``."""
    return classify_component(comp.chain, fld.window, boundary_tol(fld.window, fld.resolution))


def window2(half=2.0):
    return Window(np.array([-half, -half]), np.array([half, half]))


def circle_field(res=201, half=2.0, radius=1.0):
    f = lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 - radius ** 2
    return sample_grid(f, window2(half), (res, res))


def two_circle_field(res=201, half=4.0):
    def f(p):
        a = (p[:, 0] - 2.0) ** 2 + p[:, 1] ** 2 - 1.0
        b = (p[:, 0] + 2.0) ** 2 + p[:, 1] ** 2 - 1.0
        return np.minimum(a, b)

    return sample_grid(f, window2(half), (res, res))


class TestMarchingSquares:
    def test_circle_is_single_closed_loop(self):
        fld = circle_field()
        comps = extract_components(fld, 0.0)
        assert len(comps) == 1
        comp = comps[0]
        assert classify(comp, fld) is Classification.BOUNDED
        chain = comp.chain
        np.testing.assert_array_equal(chain[0], chain[-1])  # closed

    def test_vertical_line_spans_window(self):
        fld = sample_grid(lambda p: p[:, 0], window2(), (101, 101))
        comps = extract_components(fld, 0.0)
        assert len(comps) == 1
        assert classify(comps[0], fld) is Classification.BOUNDARY_TOUCHING
        ys = comps[0].chain[:, 1]
        assert ys.min() == -2.0 and ys.max() == 2.0

    def test_constant_field_empty(self):
        fld = sample_grid(lambda p: np.zeros(len(p)), window2(), (21, 21))
        assert extract_components(fld, 1.0) == []
        soup = marching_squares(fld, 1.0)
        assert len(soup.segments) == 0

    def test_level_equal_to_constant_field_empty(self):
        fld = sample_grid(lambda p: np.zeros(len(p)), window2(), (21, 21))
        assert extract_components(fld, 0.0) == []

    def test_level_through_lattice_values_is_nudged(self):
        # f = x hits the level 0 exactly on a lattice column; the nudge keeps
        # the extraction a single clean line
        fld = sample_grid(lambda p: p[:, 0], window2(), (41, 41))
        comps = extract_components(fld, 0.0)
        assert len(comps) == 1

    def test_vertices_lie_on_straddling_edges(self):
        fld = circle_field(81)
        soup = marching_squares(fld, 0.0)
        xs, ys = fld.axis(0), fld.axis(1)
        dx, dy = fld.spacing
        for vx, vy in soup.vertices:
            on_x_lattice = np.any(np.isclose(vx, xs, atol=1e-12))
            on_y_lattice = np.any(np.isclose(vy, ys, atol=1e-12))
            assert on_x_lattice or on_y_lattice

    def test_segment_endpoints_shared_exactly(self):
        soup = marching_squares(circle_field(81), 0.0)
        # each interior vertex is referenced by exactly two segments
        counts = np.zeros(len(soup.vertices), dtype=int)
        for a, b in soup.segments:
            counts[a] += 1
            counts[b] += 1
        assert np.all(counts == 2)  # closed loop: no frame endpoints

    def test_3d_field_rejected(self):
        win = Window(-np.ones(3), np.ones(3))
        fld = sample_grid(lambda p: np.sum(p * p, axis=1), win, (9, 9, 9))
        with pytest.raises(ValueError):
            marching_squares(fld, 0.5)

    def test_nonfinite_level_rejected(self):
        with pytest.raises(ValueError):
            marching_squares(circle_field(21), math.nan)


class TestLinkAndClassify:
    def test_two_disjoint_circles(self):
        fld = two_circle_field()
        comps = extract_components(fld, 0.0)
        assert len(comps) == 2
        assert all(classify(c, fld) is Classification.BOUNDED for c in comps)

    def test_two_circles_against_flood_fill(self):
        fld = two_circle_field()
        result = band_oracle_compare(fld, 0.0, band_delta=1e-3 * np.ptp(fld.values))
        assert result["agree"], result["issues"]
        assert result["contour_count"] == 2 == result["band_count"]

    def test_empty_input(self):
        fld = sample_grid(lambda p: np.zeros(len(p)), window2(), (11, 11))
        assert link_components(marching_squares(fld, 5.0)) == []

    def test_classify_circle_bounded(self):
        comps = extract_components(circle_field(), 0.0)
        fld = circle_field()
        diagonal = float(np.linalg.norm(fld.spacing))
        assert classify_component(comps[0].chain, fld.window,
                                  boundary_tol=diagonal) is Classification.BOUNDED

    def test_classify_diagonal_touching(self):
        chain = np.array([[-2.0, -2.0], [2.0, 2.0]])
        assert classify_component(chain, window2(),
                                  boundary_tol=0.1) is Classification.BOUNDARY_TOUCHING

    def test_classify_vertex_exactly_on_boundary(self):
        chain = np.array([[2.0, 0.0], [1.0, 0.0]])
        assert classify_component(chain, window2(),
                                  boundary_tol=0.0) is Classification.BOUNDARY_TOUCHING

    def test_boundary_tol_controls_verdict(self):
        # circle of radius 1 in [-2,2]^2: min distance to the frame is 1
        comps = extract_components(circle_field(), 0.0)
        assert classify_component(comps[0].chain, window2(),
                                  boundary_tol=0.9) is Classification.BOUNDED
        assert classify_component(comps[0].chain, window2(),
                                  boundary_tol=1.1) is Classification.BOUNDARY_TOUCHING

    def test_component_order_deterministic(self):
        a = extract_components(two_circle_field(), 0.0)
        b = extract_components(two_circle_field(), 0.0)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.chain, cb.chain)


def polynomial_field(f, half, res):
    return sample_grid(lambda p: f(p[:, 0], p[:, 1]), window2(half), (res, res))


# polynomial fields only, so the vertices do not depend on the libm; each of
# the two x*y fields has a saddle cell, which emits two segments; the
# quartic has four loops at 0.5, two nested ones at 1.2 and open chains at 9.5
QUARTIC = polynomial_field(lambda x, y: (x * x - 1) ** 2 + (y * y - 1) ** 2, 2.0, 40)
WALK_FIELDS = [
    (polynomial_field(lambda x, y: x * y, 1.0, 4), 0.0),
    (polynomial_field(lambda x, y: x * y - 0.1 * x, 1.5, 30), 0.0),
    (QUARTIC, 0.5), (QUARTIC, 1.2), (QUARTIC, 9.5),
]


class TestVertexWalk:
    def test_saddle_cell_emits_two_segments(self):
        fld, level = WALK_FIELDS[0]
        cells = marching_squares(fld, level).segment_cells.tolist()
        assert cells.count([1, 1]) == 2

    @pytest.mark.parametrize("fld,level", WALK_FIELDS)
    def test_vertex_degree_is_one_on_the_frame_and_two_inside(self, fld, level):
        soup = marching_squares(fld, level)
        degree = np.bincount(soup.segments.ravel(), minlength=len(soup.vertices))
        on_frame = fld.window.boundary_distance(soup.vertices) == 0.0
        assert len(soup.segments) > 0
        np.testing.assert_array_equal(degree, np.where(on_frame, 1, 2))

    @pytest.mark.parametrize("fld,level", WALK_FIELDS)
    def test_components_are_single_chains_partitioning_the_soup(self, fld, level):
        soup = marching_squares(fld, level)
        vertex_id = {tuple(v): k for k, v in enumerate(soup.vertices.tolist())}
        assert len(vertex_id) == len(soup.vertices)
        linked = []
        for comp in link_components(soup):
            chain = [vertex_id[tuple(v)] for v in comp.chain.tolist()]
            pairs = [frozenset(p) for p in zip(chain[:-1], chain[1:])]
            assert len(pairs) == len(comp.cells)
            linked.extend(pairs)
        assert sorted(map(sorted, linked)) == sorted(map(sorted, soup.segments.tolist()))

    def test_open_chain_starts_at_the_end_its_first_segment_names_first(self):
        # linspace(-1, 1, 4) is not symmetric in float64, so the saddle
        # cell's centre value is (-5.6e-17)^2 > 0 and it joins the corner
        # (1, 1).  Segments: (5,4) (0,1) (1,6) (2,5) (2,3) (7,6), with vertex
        # 4 at (-1,0), 5 at (-1/3,0), 2 at (0,1/3) and 3 at (0,1): end 4 is
        # position 1 of segment 0 and end 3 position 1 of segment 4, so the
        # first chain starts at 4; the second at 0 = (0,-1), position 0 of
        # segment 1, not at 7, position 0 of segment 5
        fld, level = WALK_FIELDS[0]
        first, second = link_components(marching_squares(fld, level))
        third = 1.0 / 3.0
        np.testing.assert_allclose(first.chain,
                                   [[-1, 0], [-third, 0], [0, third], [0, 1]], atol=1e-12)
        np.testing.assert_allclose(second.chain,
                                   [[0, -1], [0, -third], [third, 0], [1, 0]], atol=1e-12)

    def test_loop_starts_along_its_lowest_segment(self):
        # x^2 + y^2 = 0.5625 on the 5x5 lattice of [-1,1]^2: the lowest
        # segment is cell (0,0)'s, from its right edge at (-1/2, -13/24) to
        # its top edge at (-13/24, -1/2), so the loop runs clockwise
        fld = polynomial_field(lambda x, y: x * x + y * y - 0.5625, 1.0, 5)
        (loop,) = extract_components(fld, 0.0)
        chain = loop.chain
        assert len(chain) == 13
        np.testing.assert_array_equal(chain[0], chain[-1])
        np.testing.assert_allclose(chain[:3], [[-0.5, -13 / 24], [-13 / 24, -0.5],
                                               [-17 / 24, 0.0]], atol=1e-12)


class TestEnclosure:
    def test_circle_encloses_origin(self):
        comps = extract_components(circle_field(), 0.0)
        assert component_encloses(comps[0].chain, (0.0, 0.0))
        assert not component_encloses(comps[0].chain, (1.5, 1.5))

    def test_line_encloses_nothing(self):
        fld = sample_grid(lambda p: p[:, 0], window2(), (41, 41))
        comps = extract_components(fld, 0.0)
        assert not component_encloses(comps[0].chain, (0.5, 0.5))


class TestRefinementStability:
    @pytest.mark.parametrize("builder,level,expected_bounded", [
        (circle_field, 0.0, 1),
        (two_circle_field, 0.0, 2),
    ])
    def test_doubling_resolution_keeps_bounded_count(self, builder, level,
                                                     expected_bounded):
        for res in (101, 201, 401):
            fld = builder(res)
            bounded = [c for c in extract_components(fld, level)
                       if classify(c, fld) is Classification.BOUNDED]
            assert len(bounded) == expected_bounded


class TestTopologyReport:
    def test_counts_and_dict_shape(self):
        fld = two_circle_field()
        entry = analyze_level(0.0, fld)
        assert (entry["bounded_final"], entry["boundary_final"]) == (2, 0)
        assert entry["final_classifications"] == ["bounded", "bounded"]
        d = entry["report"]
        assert set(d) == {"level", "window", "resolution", "boundary_tol", "components"}
        assert d["boundary_tol"] == 1.5 * float(np.linalg.norm(fld.spacing))
        assert [set(c) for c in d["components"]] == [{"polylines"}] * 2


class TestOracleEquivalence:
    def test_random_sigmoid_nets_agree_with_flood_fill(self):
        rng = np.random.default_rng(42)
        window = window2(3.0)
        for _ in range(5):
            depth = int(rng.integers(1, 4))
            arch = [2] + [int(rng.integers(2, 4)) for _ in range(depth)] + [1]
            net = init_weights(arch, SIGMOID, int(rng.integers(2 ** 31)))
            fld = sample_grid(network_scalar_fn(net), window, (201, 201))
            delta = 1e-3 * np.ptp(fld.values)
            for level in sample_noncritical_levels(fld, 3, rng):
                result = band_oracle_compare(fld, float(level), delta)
                assert result["agree"], result["issues"]


class TestOracleIssues:
    """The disagreement branches of ``band_oracle_compare``, pinned whole so
    the text and order of the issues stay fixed."""

    def test_wide_band_merges_the_rings(self):
        fld = sample_grid(lambda p: np.cos(np.pi * np.linalg.norm(p, axis=1)),
                          window2(), (121, 121))
        assert band_oracle_compare(fld, 0.0, 1.5) == {
            "agree": False, "contour_count": 6, "band_count": 1,
            "issues": ["band component 0 matched by two contour components"] * 5}

    def test_band_reaching_the_frame_flags_the_circle(self):
        fld = sample_grid(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2, window2(), (121, 121))
        assert band_oracle_compare(fld, 1.0, 3.5) == {
            "agree": False, "contour_count": 1, "band_count": 1,
            "issues": ["boundary flag mismatch on component 0: contour frame cells "
                       "False, band frame cells True"]}

    @staticmethod
    def relabelled(monkeypatch, edit):
        """Make ``band_oracle_compare`` see band components edited by ``edit``."""
        from leveltopo import contours

        def region_components_edited(fld, interval):
            regions = region_components(fld, interval)
            labels, comps = edit(regions.label_grid.copy(), list(regions.components))
            return RegionComponents(labels, tuple(comps))

        monkeypatch.setattr(contours, "region_components", region_components_edited)

    def test_contour_spanning_two_band_labels(self, monkeypatch):
        def split(labels, comps):
            right = labels[:, 60:]
            right[right >= 0] = 1
            return labels, comps + [RegionComponent(10, False, True)]

        self.relabelled(monkeypatch, split)
        fld = circle_field(res=121)
        assert band_oracle_compare(fld, 0.0, 0.05) == {
            "agree": False, "contour_count": 1, "band_count": 2,
            "issues": ["contour component 0 spans band labels [0, 1]",
                       "band components without a contour: [0, 1]"]}

    def test_contour_in_a_grazing_band_component(self, monkeypatch):
        def graze(labels, comps):
            return labels, [RegionComponent(comps[0].cell_count, False, False),
                            RegionComponent(10, True, True)]

        self.relabelled(monkeypatch, graze)
        fld = circle_field(res=121)
        assert band_oracle_compare(fld, 0.0, 0.05) == {
            "agree": False, "contour_count": 1, "band_count": 1,
            "issues": ["contour component 0 maps to non-straddling band label 0",
                       "band components without a contour: [1]"]}


# ---------------------------------------------------------------------------
# the loop implementation the array path replaced, kept as its reference


def loop_marching_squares(field, level):
    """Per-edge and per-cell loops; each saddle split by the sampled function
    at its centre, one cell at a time."""
    v = field.values
    lo_val, hi_val = field.value_range()
    nudged = np.where(v == level, level + LEVEL_NUDGE * (hi_val - lo_val), v)
    inside = nudged > level
    xs, ys = field.axis(0), field.axis(1)
    cross_h = inside[:-1, :] != inside[1:, :]
    cross_v = inside[:, :-1] != inside[:, 1:]
    vertices = []
    h_id = np.full(cross_h.shape, -1, dtype=np.int64)
    v_id = np.full(cross_v.shape, -1, dtype=np.int64)
    for i, j in np.argwhere(cross_h):
        t = (level - nudged[i, j]) / (nudged[i + 1, j] - nudged[i, j])
        h_id[i, j] = len(vertices)
        vertices.append((xs[i] + t * (xs[i + 1] - xs[i]), ys[j]))
    for i, j in np.argwhere(cross_v):
        t = (level - nudged[i, j]) / (nudged[i, j + 1] - nudged[i, j])
        v_id[i, j] = len(vertices)
        vertices.append((xs[i], ys[j] + t * (ys[j + 1] - ys[j])))
    segments, cells = [], []
    active = cross_h[:, :-1] | cross_h[:, 1:] | cross_v[:-1, :] | cross_v[1:, :]
    for i, j in np.argwhere(active):
        vb, vr, vt, vl = h_id[i, j], v_id[i + 1, j], h_id[i, j + 1], v_id[i, j]
        crossed = [e for e in (vb, vr, vt, vl) if e >= 0]
        if len(crossed) == 2:
            segments.append(tuple(crossed))
            cells.append((i, j))
        else:
            center = np.array([[0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])]])
            if inside[i, j] == (field.fn(center)[0] > level):
                segments.extend(((vb, vr), (vt, vl)))
            else:
                segments.extend(((vl, vb), (vr, vt)))
            cells.extend(((i, j), (i, j)))
    return (np.asarray(vertices, dtype=np.float64).reshape(-1, 2),
            np.asarray(segments, dtype=np.int64).reshape(-1, 2),
            np.asarray(cells, dtype=np.int64).reshape(-1, 2))


def loop_link_components(field, vertices, segments, segment_cells):
    """Vertex walk from each lowest unused segment.  Returns (chain,
    classification, frame flag, cells) per component, in the sorted order."""
    boundary_tol = 1.5 * float(np.linalg.norm(field.spacing))
    segments = segments.tolist()
    incident = [[] for _ in range(len(vertices))]
    for sid, (a, b) in enumerate(segments):
        incident[a].append(sid)
        incident[b].append(sid)
    used = [False] * len(segments)

    def walk(vertex, seg_ids):
        path = [vertex]
        while (sid := next((s for s in incident[vertex] if not used[s]), None)) is not None:
            used[sid] = True
            seg_ids.append(sid)
            a, b = segments[sid]
            vertex = b if a == vertex else a
            path.append(vertex)
        return path

    nx, ny = field.resolution[0] - 1, field.resolution[1] - 1
    components = []
    for first, (start, _) in enumerate(segments):
        if used[first]:
            continue
        seg_ids = []
        ahead = walk(start, seg_ids)
        chain = walk(start, seg_ids)[::-1] + ahead[1:]
        if incident[chain[-1]][0] < incident[chain[0]][0]:
            chain.reverse()
        seg_ids.sort()
        points = vertices[chain]
        cells = segment_cells[seg_ids]
        on_frame = bool(np.any((cells[:, 0] == 0) | (cells[:, 0] == nx - 1)
                               | (cells[:, 1] == 0) | (cells[:, 1] == ny - 1)))
        touching = float(field.window.boundary_distance(points).min()) <= boundary_tol
        components.append((points, touching, on_frame, cells))
    components.sort(key=lambda c: (round(c[0][0][0], 12), round(c[0][0][1], 12)))
    return components


def loop_encloses(chain, px, py):
    crossings = 0
    for (x0, y0), (x1, y1) in zip(chain[:-1], chain[1:]):
        if (y0 > py) != (y1 > py):
            if x0 + (py - y0) * (x1 - x0) / (y1 - y0) > px:
                crossings += 1
    return crossings % 2 == 1


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def radial(x, y):
    r2 = x * x + y * y
    return r2 * (r2 - 2.0) * (r2 - 3.5)


def ridge_xy(x, y):
    # a ridge along y = x rising to the upper right; the diagonal nodes are
    # joined across each saddle cell by the ridge, which the corner average
    # of the cell (two ridge nodes, two valley nodes) would read as a dip
    return -np.abs(x - y) + 0.01 * (x + y)


def ridge(p):
    return ridge_xy(p[:, 0], p[:, 1])


RIDGE_LEVEL = 0.01 * 1.2 - 1e-4  # just below the diagonal node (0.6, 0.6)


# polynomial fields only (no libm): saddle cells, and the ridge's, which the
# sampled function and the corner average split differently; lone segments
# cutting a corner; frame-to-frame chains; nested loops (the quartic at 1.2
# and the radial field's rings); a single circle whose segment count is far
# above 2^k for the rounds before the last one of the pointer jumping; no
# segments
REFERENCE_CASES = [
    (lambda x, y: x * y - 0.1 * x, 1.5, 0.0),
    (lambda x, y: x * y * (x - 0.3) * (y + 0.2), 1.0, 0.01),
    (lambda x, y: (x * x - 1) ** 2 + (y * y - 1) ** 2, 2.0, 0.5),
    (lambda x, y: (x * x - 1) ** 2 + (y * y - 1) ** 2, 2.0, 1.2),
    (lambda x, y: (x * x - 1) ** 2 + (y * y - 1) ** 2, 2.0, 9.5),
    (lambda x, y: x + y, 1.0, -1.999),
    (lambda x, y: x * x - y * y, 1.0, 0.98),
    (lambda x, y: x + 0.3 * y * y, 1.0, 0.1),
    (radial, 2.0, 0.5),
    (lambda x, y: x * x + y * y, 1.0, 0.6),
    (lambda x, y: x * x + y * y, 1.0, 5.0),
    (ridge_xy, 1.5, RIDGE_LEVEL),
]


class TestArrayPathMatchesLoopReference:
    @pytest.mark.parametrize("res", [11, 31, 64, 201])
    @pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
    def test_bitwise_equal(self, case, res):
        fn, half, level = REFERENCE_CASES[case]
        fld = polynomial_field(fn, half, res)
        soup = marching_squares(fld, level)
        vertices, segments, cells = loop_marching_squares(fld, level)
        np.testing.assert_array_equal(bits(soup.vertices), bits(vertices))
        np.testing.assert_array_equal(soup.segments, segments)
        np.testing.assert_array_equal(soup.segment_cells, cells)
        expected = loop_link_components(fld, vertices, segments, cells)
        got = link_components(soup)
        assert len(got) == len(expected)
        for comp, (chain, touching, on_frame, comp_cells) in zip(got, expected):
            np.testing.assert_array_equal(bits(comp.chain), bits(chain))
            assert (classify(comp, fld) is Classification.BOUNDARY_TOUCHING) == touching
            assert _in_frame_cells(comp.cells, fld.resolution) == on_frame
            np.testing.assert_array_equal(comp.cells, comp_cells)
            for px, py in [(0.0, 0.0), (0.55, -0.35), tuple(chain.mean(axis=0))]:
                assert component_encloses(comp.chain, (px, py)) == loop_encloses(chain, px, py)

    def test_cases_cover_every_kind_of_soup(self):
        kinds = set()
        for fn, half, level in REFERENCE_CASES:
            fld = polynomial_field(fn, half, 64)
            soup = marching_squares(fld, level)
            if len(soup.segments) == 0:
                kinds.add("empty")
            cells, counts = np.unique(soup.segment_cells, axis=0, return_counts=True)
            if np.any(counts == 2):
                kinds.add("saddle")
            for comp in link_components(soup):
                chain = comp.chain
                closed = np.array_equal(chain[0], chain[-1])
                if len(chain) == 2:
                    kinds.add("lone segment")
                elif not closed:
                    kinds.add("frame to frame")
                elif any(component_encloses(other.chain, chain[0])
                         for other in link_components(soup) if other is not comp):
                    kinds.add("nested loop")
        assert kinds == {"empty", "saddle", "lone segment", "frame to frame", "nested loop"}

    def test_long_single_loop(self):
        # a loop whose walk needs every round: S - 1 segments from its
        # start, with S - 1 not a power of two
        fld = polynomial_field(lambda x, y: x * x + y * y, 1.0, 201)
        soup = marching_squares(fld, 0.6)
        n_seg = len(soup.segments)
        assert n_seg > 512 and (n_seg - 1) & (n_seg - 2) != 0
        (loop,) = link_components(soup)
        assert len(loop.chain) == n_seg + 1
        vertices, segments, cells = loop_marching_squares(fld, 0.6)
        ((chain, *_),) = loop_link_components(fld, vertices, segments, cells)
        np.testing.assert_array_equal(bits(loop.chain), bits(chain))


# ---------------------------------------------------------------------------
# saddle cells decided by the sampled function


def diagonal_peak(p):
    # a peak at the centre (0.05, 0.05) of one cell of the 21^2 lattice of
    # [-1,1]^2, elongated along y = x: at level -0.02 the two diagonal
    # corners are above it and the two others below, so the cell is a saddle
    u = p[:, 0] - p[:, 1]
    w = p[:, 0] + p[:, 1] - 0.1
    return -(4.0 * u * u + w * w)


class CountingFn:
    """A field function that records the points of each call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, points):
        self.calls.append(points.copy())
        return self.fn(points)


def saddle_centres(fld, level):
    """The centres of the saddle cells of ``fld`` at ``level``, in cell order."""
    cells, counts = np.unique(marching_squares(fld, level).segment_cells, axis=0,
                              return_counts=True)
    i, j = cells[counts == 2].T
    xs, ys = fld.axis(0), fld.axis(1)
    return np.column_stack((0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])))


class TestSaddleRule:
    LEVEL = RIDGE_LEVEL

    def test_function_rule_keeps_the_ridge_one_chain(self):
        fld = sample_grid(ridge, window2(1.5), (31, 31))
        (comp,) = extract_components(fld, self.LEVEL)
        assert classify(comp, fld) is Classification.BOUNDARY_TOUCHING
        entry = analyze_level(self.LEVEL, fld)
        assert entry["bounded_final"] == 0 and entry["boundary_final"] == 1

    def test_band_oracle_splits_saddles_by_the_sampled_function(self):
        counting = CountingFn(ridge)
        fld = sample_grid(counting, window2(1.5), (31, 31))
        counting.calls.clear()
        result = band_oracle_compare(fld, self.LEVEL, 1e-3)
        calls = list(counting.calls)  # before ``saddle_centres`` calls it again
        centres = saddle_centres(fld, self.LEVEL)
        assert len(centres) == 9 and len(calls) == 1
        np.testing.assert_array_equal(calls[0], centres)
        assert result == {"agree": True, "contour_count": 1, "band_count": 1, "issues": []}

    def test_bare_field_cannot_split_a_saddle(self):
        sampled = sample_grid(ridge, window2(1.5), (31, 31))
        bare = ScalarField(sampled.window, sampled.values)
        with pytest.raises(ValueError, match="build the field with sample_grid"):
            extract_components(bare, self.LEVEL)
        # at -1 the ridge's level set is two straight chains with no saddle cell
        soup, expected = marching_squares(bare, -1.0), marching_squares(sampled, -1.0)
        assert len(soup.segments) == 80 and len(extract_components(bare, -1.0)) == 2
        np.testing.assert_array_equal(soup.segments, expected.segments)
        np.testing.assert_array_equal(bits(soup.vertices), bits(expected.vertices))

    def test_small_loop_across_a_saddle_cell_stays_bounded(self):
        fld = sample_grid(diagonal_peak, window2(1.0), (21, 21))
        cells = marching_squares(fld, -0.02).segment_cells.tolist()
        assert cells.count([10, 10]) == 2
        entry = analyze_level(-0.02, fld)
        assert entry["final_classifications"] == ["bounded"]
        (loop,) = entry["report"]["components"]
        assert component_encloses(np.asarray(loop["polylines"][0]), (0.05, 0.05))

    def test_small_loop_around_a_node_stays_bounded(self):
        peak = lambda p: -(p[:, 0] ** 2 + p[:, 1] ** 2)
        fld = sample_grid(peak, window2(1.0), (21, 21))
        entry = analyze_level(-0.005, fld)
        assert entry["final_classifications"] == ["bounded"]
        assert len(entry["report"]["components"][0]["polylines"][0]) == 5
        assert entry["bounded_enclosing_origin"] == 1

    def test_function_evaluated_once_on_saddle_centres_only(self):
        counting = CountingFn(ridge)
        fld = sample_grid(counting, window2(1.5), (31, 31))
        counting.calls.clear()
        soup = marching_squares(fld, self.LEVEL)
        _, counts = np.unique(soup.segment_cells, axis=0, return_counts=True)
        assert [c.shape for c in counting.calls] == [(int(np.sum(counts == 2)), 2)]
        counting = CountingFn(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 - 1.0)
        circle = sample_grid(counting, window2(), (41, 41))
        counting.calls.clear()
        assert len(marching_squares(circle, 0.0).segments) > 0
        assert counting.calls == []
