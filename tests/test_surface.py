"""Potential-energy surfaces: grids, trajectory families, exports."""

from __future__ import annotations

import io
import tracemalloc
import warnings

import numpy as np
import pytest

from imeac import (
    ImeacError,
    SimulationConfig,
    SurfaceGrid,
    SurfaceSpec,
    compute_energy,
    grid_node_angles,
    pe_line_integral,
    pe_line_to_nodes,
    simulate,
    solve_postfault_sep,
    surface_from_trajectories,
    surface_grid,
)
from imeac import energy
from imeac.case import coi_forces, coi_frame
from imeac.energy import PATH_S, PATH_SEGMENTS, PATH_WEIGHTS
from imeac.events import detect_events
from imeac.surface import write_surface_grid, write_surface_trajectories
from conftest import (
    family_reference,
    pe_at_time,
    ten_machine_case,
    two_machine_case,
    w_overflow_after_clearing,
    weak_postfault,
)

WINDOW = ((-0.6, 1.6), (-0.4, 1.0))


def small_spec(**overrides):
    kwargs = dict(focus_machine=1, axis_machines=(1, 2), window=WINDOW, grid_n=21)
    kwargs.update(overrides)
    return SurfaceSpec(**kwargs)


class TestSpecValidation:
    def test_distinct_axes(self):
        with pytest.raises(ValueError, match="distinct"):
            small_spec(axis_machines=(1, 1))

    def test_minimum_grid(self):
        with pytest.raises(ValueError, match="grid_n"):
            small_spec(grid_n=1)


def quadrature_ends(star):
    """(case, post-fault SEP, ends) of star's 7 grid nodes, and of 40 COI-frame ends on ring10."""
    rng = np.random.default_rng(21)
    x, y = rng.uniform(-1, 1.5, 7), rng.uniform(-1, 1, 7)
    ring = ten_machine_case()
    starts = [solve_postfault_sep(case).delta_s for case in (star, ring)]
    ring_ends = starts[1] + rng.uniform(-1.0, 1.0, (40, ring.n))
    return [
        (star, starts[0], grid_node_angles(star, small_spec(), x, y)),
        (ring, starts[1], coi_frame(ring_ends, ring.m_vector() / ring.m_vector().sum())),
    ]


class TestGridNodes:
    def test_nodes_stay_in_coi_frame(self, star):
        rng = np.random.default_rng(8)
        m = star.m_vector()
        x = rng.uniform(-2.0, 2.0, 50)
        y = rng.uniform(-2.0, 2.0, 50)
        nodes = grid_node_angles(star, small_spec(), x, y)
        np.testing.assert_allclose(nodes @ m, 0.0, atol=1e-9)
        np.testing.assert_allclose(nodes[:, 1], x, atol=1e-15)
        np.testing.assert_allclose(nodes[:, 2], y, atol=1e-15)

    def test_batched_quadrature_matches_single_calls(self, star):
        # a stack of ends (K, n) through pe_line_integral: each end's bits alone
        for case, start, ends in quadrature_ends(star):
            net, machines = case.net_postfault, case.machines
            stacked = pe_line_integral(net, machines, start, ends)
            assert stacked.shape == ends.shape
            for end, got in zip(ends, stacked):
                assert np.array_equal(got, pe_line_integral(net, machines, start, end))

    @pytest.mark.parametrize("per_chunk", [1, 7])
    def test_quadrature_does_not_depend_on_the_chunk(self, star, monkeypatch, per_chunk):
        # one end per chunk and seven in one chunk give the default's bits
        for case, start, ends in quadrature_ends(star):
            net, machines = case.net_postfault, case.machines
            default = pe_line_integral(net, machines, start, ends)
            with monkeypatch.context() as patch:
                patch.setattr(energy, "CHUNK_BYTES", per_chunk * (PATH_SEGMENTS + 1) * case.n**2 * 8)
                assert np.array_equal(pe_line_integral(net, machines, start, ends), default)

    def test_quadrature_memory_stays_cache_sized(self, star):
        # 6561 nodes of an 81x81 grid: the chunks' force temporaries must
        # not grow back to whole-grid or megabyte size
        sep = solve_postfault_sep(star)
        x, y = np.meshgrid(np.linspace(-1.5, 2.5, 81), np.linspace(-2.0, 2.0, 81))
        nodes = grid_node_angles(star, small_spec(), x.ravel(), y.ravel())
        tracemalloc.start()
        try:
            pe_line_to_nodes(star, sep.delta_s, nodes, focus=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_force_paths_are_machine_major(self, star, monkeypatch):
        # the grid's gain rests on every force temporary keeping the path
        # points innermost: each chunk's angles reach coi_forces as a
        # (k, segments + 1, n) view whose machine axis has the largest stride
        sep = solve_postfault_sep(star)
        x, y = np.meshgrid(np.linspace(-1.0, 1.5, 9), np.linspace(-0.8, 1.0, 9))
        nodes = grid_node_angles(star, small_spec(), x.ravel(), y.ravel())
        plain = pe_line_to_nodes(star, sep.delta_s, nodes, focus=1)
        seen = []

        def spy(net, machines, delta):
            seen.append((delta.shape, delta.strides))
            return coi_forces(net, machines, delta)

        monkeypatch.setattr(energy, "coi_forces", spy)
        assert np.array_equal(pe_line_to_nodes(star, sep.delta_s, nodes, focus=1), plain)
        assert sum(shape[0] for shape, _ in seen) == len(nodes)
        for shape, strides in seen:  # a length-1 node axis has no stride to compare
            assert shape[1:] == (PATH_SEGMENTS + 1, star.n)
            assert strides[1] == 8
            assert strides[2] == max(st for st, size in zip(strides, shape) if size > 1)

    @pytest.mark.parametrize("case_name, focus", [("star", 1), ("wscc", 2)])
    def test_machine_major_paths_equal_row_major_paths(self, request, case_name, focus):
        # the chunks built row-major, (k, segments + 1, n) in memory as well,
        # give the same bits: below 8 machines the j-sum order is the same
        case = request.getfixturevalue(case_name)
        sep = solve_postfault_sep(case)
        a, b = sep.delta_s[1], sep.delta_s[2]
        x, y = np.meshgrid(np.linspace(a - 2.0, a + 2.0, 21), np.linspace(b - 2.0, b + 2.0, 21))
        nodes = grid_node_angles(case, small_spec(), x.ravel(), y.ravel())
        start, s, weights = sep.delta_s, PATH_S, PATH_WEIGHTS
        chunk = max(1, energy.CHUNK_BYTES // ((PATH_SEGMENTS + 1) * case.n**2 * 8))
        reference = []
        for base in range(0, len(nodes), chunk):
            ends = nodes[base : base + chunk]
            path = start + s[:, None] * (ends[:, None, :] - start)
            forces = coi_forces(case.net_postfault, case.machines, path)
            reference.append((-(weights @ forces) * (ends - start))[:, focus])
        got = pe_line_to_nodes(case, sep.delta_s, nodes, focus)
        assert np.array_equal(got, np.concatenate(reference))


class TestSurfaceGrid:
    def test_axes_and_shape(self, star):
        grid = surface_grid(star, small_spec())
        assert grid.pe.shape == (21, 21)
        assert grid.x_axis[0] == WINDOW[0][0] and grid.x_axis[-1] == WINDOW[0][1]
        assert grid.focus_machine == 1

    def test_sep_level_is_zero_and_minimal(self, star):
        sep = solve_postfault_sep(star)
        grid = surface_grid(star, small_spec(grid_n=41))
        at_sep = grid.interpolate(float(sep.delta_s[1]), float(sep.delta_s[2]))
        assert abs(at_sep) < 5e-4  # bilinear residue only
        assert grid.pe.min() > -1e-6

    @pytest.mark.parametrize("case_name, focus, axes", [("star", 1, (1, 2)), ("wscc", 2, (1, 2))])
    def test_every_node_is_the_single_line_integral(self, request, case_name, focus, axes):
        case = request.getfixturevalue(case_name)
        sep = solve_postfault_sep(case)
        a, b = sep.delta_s[list(axes)]
        spec = SurfaceSpec(focus_machine=focus, axis_machines=axes,
                           window=((a - 2.0, a + 2.0), (b - 2.0, b + 2.0)), grid_n=21)
        grid = surface_grid(case, spec, sep)
        for i, x in enumerate(grid.x_axis):
            for j, y in enumerate(grid.y_axis):
                node = grid_node_angles(case, spec, x, y)
                single = pe_line_integral(case.net_postfault, case.machines, sep.delta_s, node)
                assert grid.pe[i, j] == single[focus], (i, j)

    def test_repeat_build_identical(self, star):
        a = surface_grid(star, small_spec())
        b = surface_grid(star, small_spec())
        assert np.array_equal(a.pe, b.pe)

    def test_infinite_bus_axis_warns_unresolved_paths(self, star):
        # machine 0 has M = 1e6: moving it on an axis puts the implied angle
        # ~1e8 rad out; every node is still computed, finite, and warned about
        spec = small_spec(focus_machine=2, axis_machines=(0, 1), window=((-1, 1.5), (-2, 0.5)))
        with pytest.warns(RuntimeWarning, match="past 20 rad") as caught:
            grid = surface_grid(star, spec)
        assert len(caught) == 1
        assert np.isfinite(grid.pe).all()

    @pytest.mark.parametrize("case_name", ["star", "wscc"])
    def test_readme_grid_does_not_warn(self, request, case_name, recwarn):
        # axes 1, 2 at the CLI's default half-width of 2 rad: a 4 rad swing
        case = request.getfixturevalue(case_name)
        sep = solve_postfault_sep(case)
        a, b = sep.delta_s[1], sep.delta_s[2]
        window = ((a - 2.0, a + 2.0), (b - 2.0, b + 2.0))
        surface_grid(case, small_spec(window=window), sep)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_needs_three_machines(self, smib):
        with pytest.raises(ImeacError, match="3 machines"):
            surface_grid(smib, small_spec(axis_machines=(0, 1), focus_machine=0))

    def test_focus_in_range(self, star):
        with pytest.raises(ImeacError, match="out of range"):
            surface_grid(star, small_spec(focus_machine=7))

    @pytest.mark.parametrize("axes", [(1, 5), (-1, 1), (2, -3)])
    def test_axes_in_range(self, star, axes):
        # a negative index must not wrap to a machine from the end
        with pytest.raises(ImeacError, match="^axes: machine -?[0-9] out of range"):
            surface_grid(star, small_spec(axis_machines=axes))

    @pytest.mark.parametrize(
        "window",
        [((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (0.5, 0.5)), ((0.0, np.inf), (0.0, 1.0)),
         ((np.nan, 1.0), (0.0, 1.0))],
    )
    def test_window_needs_lo_below_hi(self, star, window):
        with pytest.raises(ImeacError, match="^window: [xy] range"):
            surface_grid(star, small_spec(window=window))

    def test_unconverged_sep_is_refused(self, wscc):
        # halving the post-fault network leaves no SEP: grid PE would have no baseline
        weak = weak_postfault(wscc)
        sep = solve_postfault_sep(weak)
        assert not sep.converged
        spec = small_spec(focus_machine=2, window=((-1.0, 1.0), (-1.0, 1.0)))
        with pytest.raises(ImeacError, match="^post-fault SEP did not converge"):
            surface_grid(weak, spec, sep)

    def test_interpolate_rejects_outside_window(self, star):
        grid = surface_grid(star, small_spec())
        with pytest.raises(ValueError):
            grid.interpolate(10.0, 0.0)


class TestTrajectoryFamily:
    def test_samples_match_energy_channels(self, star):
        family = (
            SimulationConfig(t_clear=0.05, t_end=1.0),
            SimulationConfig(t_clear=0.10, t_end=1.0),
        )
        spec = small_spec(trajectory_family=family)
        table = surface_from_trajectories(star, spec)
        assert table.shape[1] == 5
        assert set(table[:, 0].tolist()) == {0.0, 1.0}
        sep = solve_postfault_sep(star)
        traj = simulate(star, family[0])
        channels = compute_energy(star, traj, sep)
        first = table[table[:, 0] == 0]
        assert len(first) == traj.n_samples
        k = traj.n_samples // 2
        assert first[k, 1] == pytest.approx(traj.times[k])
        assert first[k, 2] == pytest.approx(traj.delta_coi[1, k])
        assert first[k, 4] == pytest.approx(channels.pe[1, k], abs=1e-12)

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (dict(focus_machine=9), "focus"),
            (dict(focus_machine=-1), "focus"),
            (dict(axis_machines=(1, 3)), "axes"),
            (dict(axis_machines=(-1, 1)), "axes"),
            (dict(window=((0.0, 1.0), (1.0, -1.0))), "window"),
        ],
    )
    def test_inputs_checked_before_simulating(self, star, overrides, named):
        family = (SimulationConfig(t_clear=0.05, t_end=0.2),)
        spec = small_spec(trajectory_family=family, **overrides)
        with pytest.raises(ImeacError, match=f"^{named}: "):
            surface_from_trajectories(star, spec)

    def test_empty_family_is_an_error(self, star):
        with pytest.raises(ImeacError, match="empty"):
            surface_from_trajectories(star, small_spec())

    def test_diverged_member_skipped_with_warning(self):
        case = two_machine_case(pm=1.0, m0=1e-4, m1=1.0, fault_b=0.0)
        spec = SurfaceSpec(
            focus_machine=0,
            axis_machines=(0, 1),
            window=((-1.0, 1.0), (-1.0, 1.0)),
            trajectory_family=(SimulationConfig(t_clear=2.0, t_end=3.0),),
        )
        with pytest.warns(RuntimeWarning, match="diverged"):
            table = surface_from_trajectories(case, spec)
        assert table.shape == (0, 5)


def family(case, focus, axes, *members):
    """A trajectory-family spec: members are (t_clear, t_end) or (t_clear, t_end, dt)."""
    configs = tuple(SimulationConfig(*m) for m in members)
    return case, SurfaceSpec(focus, axes, ((-1.0, 1.0), (-1.0, 1.0)), trajectory_family=configs)


def run_recorded(call, *args):
    """call(*args) and the texts of every warning it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    return result, [str(w.message) for w in caught]


FAMILIES = {
    # README's family: --sweep 0.05:0.20:0.01 --t-end 3.0
    "readme": lambda wscc: family(
        wscc, 2, (1, 2), *[(round(0.05 + 0.01 * k, 2), 3.0) for k in range(16)]),
    "unsorted-repeat": lambda wscc: family(
        wscc, 2, (1, 2), (0.15, 1.5), (0.05, 1.5), (0.10, 1.5), (0.05, 1.5)),
    "mixed-dt-and-t_end": lambda wscc: family(
        wscc, 1, (0, 2), (0.1, 1.0), (0.1, 0.8, 2e-3), (0.06, 1.5), (0.2, 0.5, 5e-4)),
    # the middle member's fault-on stage leaves the guard region
    "fault-on-divergence": lambda wscc: family(
        two_machine_case(pm=1.0, m0=1e-4, m1=1.0, fault_b=0.0), 0, (0, 1),
        (0.05, 1.0), (2.0, 3.0), (0.1, 1.0)),
    # only the 0.15 s member's W overflows, after clearing, at 0.381 s
    "divergence-after-clearing": lambda wscc: family(
        w_overflow_after_clearing(wscc), 2, (1, 2), (0.10, 1.0), (0.07, 1.0), (0.15, 1.0)),
}


class TestFamilyEqualsMemberByMember:
    """The shared-pool family table against ``family_reference``, bit for bit."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_table_bytes_and_warnings(self, wscc, name):
        case, spec = FAMILIES[name](wscc)
        table, caught = run_recorded(surface_from_trajectories, case, spec)
        reference, expected = run_recorded(family_reference, case, spec)
        assert table.shape == reference.shape
        assert table.tobytes() == reference.tobytes()
        assert caught == expected

    def test_several_diverged_members_warn_in_family_order(self, wscc):
        # numpy's own overflow warnings come from the shared pool's blocks,
        # before the member lines; each member line keeps its text and place
        case, spec = family(
            w_overflow_after_clearing(wscc), 2, (1, 2),
            (0.20, 1.0), (0.10, 1.0), (0.15, 1.0), (0.18, 1.0))
        table, caught = run_recorded(surface_from_trajectories, case, spec)
        reference, expected = run_recorded(family_reference, case, spec)
        assert table.tobytes() == reference.tobytes()
        members = [text for text in caught if text.startswith("family member")]
        assert [text.split()[2] for text in members] == ["0", "2", "3"]
        assert members == [text for text in expected if text.startswith("family member")]
        assert sorted(caught) == sorted(expected)


class TestExports:
    def test_grid_scanlines(self, star):
        grid = surface_grid(star, small_spec(grid_n=5))
        stream = io.StringIO()
        write_surface_grid(stream, grid)
        blocks = stream.getvalue().split("\n\n")
        header_and_first = blocks[0].splitlines()
        assert header_and_first[0].startswith("#")
        assert header_and_first[1] == "# x_rad\ty_rad\tpe_pu"
        assert len(header_and_first) == 2 + 5
        assert len([b for b in blocks if b.strip()]) == 5

    def test_grid_bytes_equal_per_value_formatting(self, star):
        # the writer formats each x once per scanline and each y once per
        # grid: its bytes against formatting every value of every row alone,
        # with 0.0 and -0.0 (equal as keys) on both axes, and at grid_n = 2
        cases = [
            (5, None),
            (5, ([-1e300, -0.0, 5e-324, 0.0, 1e300], [1e300, 0.0, 5e-324, -0.0, -1e300])),
            (2, ([-0.0, 1e300], [0.0, 5e-324])),
        ]
        for grid_n, axes in cases:
            grid = surface_grid(star, small_spec(grid_n=grid_n))
            x_axis, y_axis = axes or (grid.x_axis, grid.y_axis)
            pe = grid.pe.copy()
            pe.flat[:4] = [np.nan, np.inf, -0.0, 5e-324]
            pe.flat[-1] = -np.inf
            grid = SurfaceGrid(x_axis, y_axis, pe, grid.focus_machine, grid.axis_machines)
            stream = io.StringIO()
            write_surface_grid(stream, grid)
            expected = "# grid surface: focus machine 1, axes (1, 2)\n# x_rad\ty_rad\tpe_pu\n"
            for i, x in enumerate(grid.x_axis):
                for j, y in enumerate(grid.y_axis):
                    expected += f"{x:.10e}\t{y:.10e}\t{grid.pe[i, j]:.10e}\n"
                expected += "\n"
            assert stream.getvalue().encode() == expected.encode(), (grid_n, axes)

    def test_trajectory_rows(self, star):
        family = (SimulationConfig(t_clear=0.05, t_end=0.2),)
        samples = surface_from_trajectories(star, small_spec(trajectory_family=family))
        stream = io.StringIO()
        write_surface_trajectories(stream, samples)
        lines = stream.getvalue().strip().splitlines()
        assert lines[0].startswith("# traj_id")
        assert len(lines) == 1 + len(samples)
        assert lines[1].split("\t")[0] == "traj-0"

    def test_ribbon_bytes_equal_per_value_formatting(self, star):
        # the one-format-per-row writer against formatting every value alone
        family = (
            SimulationConfig(t_clear=0.05, t_end=0.2),
            SimulationConfig(t_clear=0.10, t_end=0.3),
        )
        table = surface_from_trajectories(star, small_spec(trajectory_family=family)).copy()
        table[:5, 4] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
        table[5:9, 2] = [np.nan, np.inf, -np.inf, -0.0]
        table[9, 3] = 5e-324
        stream = io.StringIO()
        write_surface_trajectories(stream, table)
        expected = "# traj_id\tt_s\tx_rad\ty_rad\tpe_pu\n" + "".join(
            f"traj-{int(i)}\t{t:.6f}\t{x:.10e}\t{y:.10e}\t{pe:.10e}\n" for i, t, x, y, pe in table
        )
        assert stream.getvalue().encode() == expected.encode()


class TestImppOnRidge:
    def test_dlp_sample_is_a_local_pe_maximum(self, wscc, wscc_sep, wscc_unstable_run):
        # the liberation point sits on the potential-energy crest of its
        # own trajectory: pe falls off on both sides of every DLP
        traj = wscc_unstable_run
        channels = compute_energy(wscc, traj, wscc_sep)
        dlps = [
            ev
            for machine_events in detect_events(wscc, traj)
            for ev in machine_events
            if ev.kind == "DLP"
        ]
        assert dlps
        dt = traj.times[1] - traj.times[0]
        for ev in dlps:
            crest = pe_at_time(traj, channels, ev.machine, ev.time)
            for offset in (5 * dt, 15 * dt):
                for side in (ev.time - offset, ev.time + offset):
                    assert pe_at_time(traj, channels, ev.machine, side) < crest
