#include "core/s2/s2_sorter.hpp"

namespace prodsort {

void S2Sorter::sort_view(Machine& machine, const ViewSpec& view,
                         bool descending) const {
  const ViewSpec views[] = {view};
  sort_views(machine, views, std::vector<bool>{descending});
}

}  // namespace prodsort
