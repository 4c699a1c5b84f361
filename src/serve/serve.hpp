// Umbrella header for the inference-serving subsystem.
//
//   #include "serve/serve.hpp"
//
// Every caller serves through a FleetScheduler; one model is a fleet of one
// tenant:
//   iwg::serve::FleetScheduler fleet(fleet_cfg);      // worker pool
//   fleet.add_tenant(std::move(model), tenant_cfg);   // warmed, then live
//   auto fut = fleet.submit("tenant-id", image);      // H×W×C → future
//   iwg::serve::Response r = fut.get();               // always resolves
//   fleet.swap_weights("tenant-id", "new.iwgw");      // zero-drop hot swap
//
// See fleet.hpp (weighted-fair / EDF scheduling, batch rule) and
// registry.hpp (warm-up and hot-swap protocol) for the overviews.
#pragma once

#include "serve/dispatch.hpp"     // IWYU pragma: export
#include "serve/fleet.hpp"        // IWYU pragma: export
#include "serve/registry.hpp"     // IWYU pragma: export
#include "serve/request.hpp"      // IWYU pragma: export
