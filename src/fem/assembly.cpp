#include "fem/assembly.hpp"

#include <algorithm>
#include <cmath>

#include "par/par.hpp"
#include "util/check.hpp"

namespace geofem::fem {

void BoundaryConditions::fix_nodes(const std::vector<int>& nodes, int comp, double value) {
  for (int n : nodes) {
    if (comp < 0) {
      for (int c = 0; c < 3; ++c) fixes.push_back({n, c, value});
    } else {
      fixes.push_back({n, comp, value});
    }
  }
}

void BoundaryConditions::surface_load(
    const mesh::HexMesh& m, const std::function<bool(double, double, double)>& on_surface,
    int comp, double q) {
  // Local faces of the standard hexahedron.
  static const int faces[6][4] = {{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 5, 4},
                                  {2, 3, 7, 6}, {1, 2, 6, 5}, {3, 0, 4, 7}};
  auto on = [&](int node) {
    const auto& c = m.coords[static_cast<std::size_t>(node)];
    return on_surface(c[0], c[1], c[2]);
  };
  for (const auto& h : m.hexes) {
    for (const auto& f : faces) {
      const int n0 = h[static_cast<std::size_t>(f[0])], n1 = h[static_cast<std::size_t>(f[1])],
                n2 = h[static_cast<std::size_t>(f[2])], n3 = h[static_cast<std::size_t>(f[3])];
      if (!(on(n0) && on(n1) && on(n2) && on(n3))) continue;
      // Bilinear quad area via the two triangles (n0,n1,n2) and (n0,n2,n3).
      auto area3 = [&](int a, int b, int c) {
        const auto &pa = m.coords[static_cast<std::size_t>(a)],
                   &pb = m.coords[static_cast<std::size_t>(b)],
                   &pc = m.coords[static_cast<std::size_t>(c)];
        const double u[3] = {pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]};
        const double v[3] = {pc[0] - pa[0], pc[1] - pa[1], pc[2] - pa[2]};
        const double cx = u[1] * v[2] - u[2] * v[1];
        const double cy = u[2] * v[0] - u[0] * v[2];
        const double cz = u[0] * v[1] - u[1] * v[0];
        return 0.5 * std::sqrt(cx * cx + cy * cy + cz * cz);
      };
      const double area = area3(n0, n1, n2) + area3(n0, n2, n3);
      const double per_node = q * area / 4.0;
      for (int v : {n0, n1, n2, n3}) loads.push_back({v, comp, per_node});
    }
  }
}

void BoundaryConditions::body_force(const mesh::HexMesh& m, int comp, double f) {
  for (const auto& h : m.hexes) {
    std::array<std::array<double, 3>, 8> xyz;
    for (int v = 0; v < 8; ++v) xyz[static_cast<std::size_t>(v)] =
        m.coords[static_cast<std::size_t>(h[static_cast<std::size_t>(v)])];
    const double per_node = f * hex_volume(xyz) / 8.0;
    for (int v : h) loads.push_back({v, comp, per_node});
  }
}

namespace {

/// Node -> item incidence in CSR form: the items (elements, contact groups)
/// containing node i are item[ptr[i] .. ptr[i+1]), ascending and without
/// repeats.
struct Incidence {
  std::vector<int> ptr;
  std::vector<int> item;
};

template <class Items>
Incidence incidence(int nn, const Items& items) {
  Incidence inc;
  inc.ptr.assign(static_cast<std::size_t>(nn) + 1, 0);
  // last[v] = last item counted for node v, so a node listed twice in one
  // item is counted once.
  std::vector<int> last(static_cast<std::size_t>(nn), -1);
  for (std::size_t t = 0; t < items.size(); ++t)
    for (int v : items[t]) {
      GEOFEM_CHECK(v >= 0 && v < nn, "pattern index out of range");
      if (last[static_cast<std::size_t>(v)] == static_cast<int>(t)) continue;
      last[static_cast<std::size_t>(v)] = static_cast<int>(t);
      ++inc.ptr[static_cast<std::size_t>(v) + 1];
    }
  for (int i = 0; i < nn; ++i)
    inc.ptr[static_cast<std::size_t>(i) + 1] += inc.ptr[static_cast<std::size_t>(i)];
  inc.item.resize(static_cast<std::size_t>(inc.ptr.back()));
  std::vector<int> fill(inc.ptr.begin(), inc.ptr.end() - 1);
  std::fill(last.begin(), last.end(), -1);
  for (std::size_t t = 0; t < items.size(); ++t)
    for (int v : items[t]) {
      if (last[static_cast<std::size_t>(v)] == static_cast<int>(t)) continue;
      last[static_cast<std::size_t>(v)] = static_cast<int>(t);
      inc.item[static_cast<std::size_t>(fill[static_cast<std::size_t>(v)]++)] =
          static_cast<int>(t);
    }
  return inc;
}

/// Block sparsity pattern of the stiffness matrix: row i couples to every
/// node sharing an element or a contact group with it, plus itself. Built
/// row-parallel from the incidences (one pass counts, one fills), each row's
/// columns sorted ascending and unique — the pattern BlockCSRBuilder would
/// produce from the same element and group couplings. `val` is zeroed. All
/// storage is allocated on the calling thread; the team only fills it.
sparse::BlockCSR block_pattern(const mesh::HexMesh& m, const Incidence& el,
                               const Incidence& grp, int team) {
  const int nn = m.num_nodes();
  sparse::BlockCSR a;
  a.n = nn;
  a.rowptr.assign(static_cast<std::size_t>(nn) + 1, 0);
  // One marker array per part of the static row partition: mark[v] == stamp
  // when v has already been collected for the row being built.
  std::vector<int> marks(static_cast<std::size_t>(team) * static_cast<std::size_t>(nn), -1);
  const auto for_rows = [&](auto&& row_fn) {
#pragma omp parallel for schedule(static, 1) num_threads(team) if (team > 1)
    for (int part = 0; part < team; ++part) {
      int* mark = marks.data() + static_cast<std::size_t>(part) * static_cast<std::size_t>(nn);
      const par::Range r = par::static_range(static_cast<std::size_t>(nn), team, part);
      for (auto i = static_cast<int>(r.begin); i < static_cast<int>(r.end); ++i) row_fn(i, mark);
    }
  };
  const auto neighbours = [&](int i, int* mark, int stamp, auto&& emit) {
    const auto visit = [&](int v) {
      if (mark[v] == stamp) return;
      mark[v] = stamp;
      emit(v);
    };
    visit(i);
    for (int p = el.ptr[static_cast<std::size_t>(i)]; p < el.ptr[static_cast<std::size_t>(i) + 1];
         ++p)
      for (int v : m.hexes[static_cast<std::size_t>(el.item[static_cast<std::size_t>(p)])])
        visit(v);
    for (int p = grp.ptr[static_cast<std::size_t>(i)]; p < grp.ptr[static_cast<std::size_t>(i) + 1];
         ++p)
      for (int v : m.contact_groups[static_cast<std::size_t>(grp.item[static_cast<std::size_t>(p)])])
        visit(v);
  };
  for_rows([&](int i, int* mark) {
    int deg = 0;
    neighbours(i, mark, i, [&](int) { ++deg; });
    a.rowptr[static_cast<std::size_t>(i) + 1] = deg;
  });
  for (int i = 0; i < nn; ++i)
    a.rowptr[static_cast<std::size_t>(i) + 1] += a.rowptr[static_cast<std::size_t>(i)];
  a.colind.resize(static_cast<std::size_t>(a.rowptr.back()));
  for_rows([&](int i, int* mark) {
    int* row = a.colind.data() + a.rowptr[static_cast<std::size_t>(i)];
    int deg = 0;
    neighbours(i, mark, nn + i, [&](int v) { row[deg++] = v; });
    std::sort(row, row + deg);
  });
  a.val.assign(static_cast<std::size_t>(a.rowptr.back()) * sparse::kBB, 0.0);
  return a;
}

}  // namespace

System assemble_elasticity(const mesh::HexMesh& m, const std::vector<Material>& materials) {
  GEOFEM_CHECK(!materials.empty(), "need at least one material");
  const int nn = m.num_nodes();
  const int team = par::threads();
  const Incidence el = incidence(nn, m.hexes);
  const Incidence grp = incidence(nn, m.contact_groups);
  sparse::BlockCSR a = block_pattern(m, el, grp, team);

  // Element stiffnesses are formed in parallel one bounded chunk at a time,
  // then scattered with row ownership: the thread owning block row i adds
  // the rows of every ke touching node i, elements ascending, local node
  // pairs (a, b) ascending — exactly the additions, in exactly the order, of
  // the serial element loop. Each block therefore holds the same bits for
  // any team size.
  const std::size_t ne = m.hexes.size();
  std::vector<double> ke(std::min(ne, kStiffnessChunk) * 24 * 24);
  std::vector<int> next(el.ptr.begin(), el.ptr.end() - 1);  // per row: first unscattered element
  for (std::size_t e0 = 0; e0 < ne; e0 += kStiffnessChunk) {
    const std::size_t e1 = std::min(ne, e0 + kStiffnessChunk);
    const auto chunk = static_cast<std::ptrdiff_t>(e1 - e0);
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
    for (std::ptrdiff_t k = 0; k < chunk; ++k) {
      const std::size_t e = e0 + static_cast<std::size_t>(k);
      const auto& h = m.hexes[e];
      std::array<std::array<double, 3>, 8> xyz;
      for (int v = 0; v < 8; ++v) xyz[static_cast<std::size_t>(v)] =
          m.coords[static_cast<std::size_t>(h[static_cast<std::size_t>(v)])];
      const int zid = m.zone.empty() ? 0 : m.zone[e];
      const Material& mat =
          materials[static_cast<std::size_t>(zid) < materials.size() ? static_cast<std::size_t>(zid)
                                                                     : 0];
      hex_stiffness(xyz, mat, ke.data() + static_cast<std::size_t>(k) * 24 * 24);
    }
    // Rows this chunk touches: a contiguous window of node ids on meshes
    // numbered the usual way, so the row loop spreads real work.
    int lo = nn, hi = -1;
    for (std::size_t e = e0; e < e1; ++e)
      for (int v : m.hexes[e]) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
    for (int i = lo; i <= hi; ++i) {
      int& p = next[static_cast<std::size_t>(i)];
      const int pend = el.ptr[static_cast<std::size_t>(i) + 1];
      const int* first = a.colind.data() + a.rowptr[static_cast<std::size_t>(i)];
      const int* last = a.colind.data() + a.rowptr[static_cast<std::size_t>(i) + 1];
      for (; p < pend && static_cast<std::size_t>(el.item[static_cast<std::size_t>(p)]) < e1; ++p) {
        const auto e = static_cast<std::size_t>(el.item[static_cast<std::size_t>(p)]);
        const auto& h = m.hexes[e];
        const double* kel = ke.data() + (e - e0) * 24 * 24;
        for (int la = 0; la < 8; ++la) {
          if (h[static_cast<std::size_t>(la)] != i) continue;
          for (int lb = 0; lb < 8; ++lb) {
            const int j = h[static_cast<std::size_t>(lb)];
            double* dst = a.block(static_cast<int>(std::lower_bound(first, last, j) - a.colind.data()));
            for (int r = 0; r < 3; ++r)
              for (int c = 0; c < 3; ++c) dst[3 * r + c] += kel[(3 * la + r) * 24 + (3 * lb + c)];
          }
        }
      }
    }
  }

  System sys;
  sys.a = std::move(a);
  sys.b.assign(sys.a.ndof(), 0.0);
  return sys;
}

void apply_boundary_conditions(System& sys, const BoundaryConditions& bc) {
  // The single-RHS case is the k = 1 column of the batched elimination with
  // scale 1.0: l.value * 1.0 == l.value, so the bits are the same.
  sys.b = std::move(apply_boundary_conditions_multi(sys, bc, {1.0}).front());
}

std::vector<std::vector<double>> apply_boundary_conditions_multi(
    System& sys, const BoundaryConditions& bc, const std::vector<double>& load_scales) {
  auto& a = sys.a;
  GEOFEM_CHECK(!load_scales.empty(), "apply_boundary_conditions_multi: no columns");
  GEOFEM_CHECK(sys.b.size() == a.ndof(), "system size mismatch");
  const std::size_t k = load_scales.size();

  // Loads and fixes are applied serially in list order: a repeated entry
  // accumulates (loads) or overrides (fixes) in that order.
  std::vector<std::vector<double>> cols(k, sys.b);
  for (std::size_t c = 0; c < k; ++c) {
    // The product l.value * scale is formed first, then added.
    for (const auto& l : bc.loads) {
      GEOFEM_CHECK(l.node >= 0 && l.node < a.n && l.comp >= 0 && l.comp < 3, "bad load");
      cols[c][static_cast<std::size_t>(l.node) * 3 + static_cast<std::size_t>(l.comp)] +=
          l.value * load_scales[c];
    }
  }

  std::vector<char> fixed(a.ndof(), 0);
  std::vector<char> node_fixed(static_cast<std::size_t>(a.n), 0);  // any component fixed
  std::vector<double> fixval(a.ndof(), 0.0);
  for (const auto& f : bc.fixes) {
    GEOFEM_CHECK(f.node >= 0 && f.node < a.n && f.comp >= 0 && f.comp < 3, "bad fix");
    const std::size_t d = static_cast<std::size_t>(f.node) * 3 + static_cast<std::size_t>(f.comp);
    fixed[d] = 1;
    node_fixed[static_cast<std::size_t>(f.node)] = 1;
    fixval[d] = f.value;
  }

  // One elimination sweep: every column's RHS update reads the matrix value
  // BEFORE it is zeroed, exactly as k independent single-RHS sweeps would.
  // Everything a block row writes — its blocks and its own RHS entries — is
  // private to that row, and fixed[] / fixval[] are only read, so the rows
  // run over the team with the bits of the serial sweep. The row's fixed
  // diagonal scalars are set right after its elimination: the elimination
  // never touches them, and it only updates RHS entries of free rows.
  const int team = par::threads();
  int missing_diag = 0;
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1) \
    reduction(+ : missing_diag)
  for (int i = 0; i < a.n; ++i) {
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
      const int j = a.colind[e];
      // A block between two nodes with no fixed component is left as is.
      if (!node_fixed[static_cast<std::size_t>(i)] && !node_fixed[static_cast<std::size_t>(j)])
        continue;
      double* blk = a.block(e);
      for (int r = 0; r < 3; ++r) {
        const std::size_t row = static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(r);
        for (int c = 0; c < 3; ++c) {
          const std::size_t col = static_cast<std::size_t>(j) * 3 + static_cast<std::size_t>(c);
          double& v = blk[3 * r + c];
          if (row == col) continue;  // diagonal scalar handled below
          if (fixed[col] && !fixed[row])
            for (std::size_t cc = 0; cc < k; ++cc) cols[cc][row] -= v * fixval[col];
          if (fixed[row] || fixed[col]) v = 0.0;
        }
      }
    }
    // Fixed diagonal scalars: keep original magnitude (conditioning-neutral),
    // set RHS so the solve returns exactly the prescribed value.
    const int de = a.find(i, i);
    if (de < 0) {
      ++missing_diag;
      continue;
    }
    double* d = a.block(de);
    for (int r = 0; r < 3; ++r) {
      const std::size_t row = static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(r);
      if (!fixed[row]) continue;
      if (d[3 * r + r] == 0.0) d[3 * r + r] = 1.0;
      for (std::size_t cc = 0; cc < k; ++cc) cols[cc][row] = d[3 * r + r] * fixval[row];
    }
  }
  GEOFEM_CHECK(missing_diag == 0, "missing diagonal block");
  return cols;
}

}  // namespace geofem::fem
