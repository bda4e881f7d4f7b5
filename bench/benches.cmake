set(EXPERIMENT_BENCHES
  table3_client_profiles
  fig4a_recall_vs_futures
  fig4b_group_size
  fig5_parallel_speedup
  ropsten_topology
  rinkeby_topology
  goerli_topology
  fig7_local_mempool_size
  table8_local_parallel
  table6_mainnet_critical
  table7_costs
  appc_noninterference
  appe_eip1559
  ablation_design_choices
  txprobe_comparison
  usecase_security_analysis
  flaw_zero_bump_dos
  w1_node_census
  w2_inactive_links_survey
  usecase_eclipse_sim
  usecase_mining_qos
  x_calibration
  fault_recall
  strategy_rivalry
  world_fork
  monitor_tracking
)

foreach(bench ${EXPERIMENT_BENCHES})
  add_executable(${bench} bench/${bench}.cpp)
  target_link_libraries(${bench} PRIVATE toposhot)
  set_target_properties(${bench} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

set(MICRO_BENCHES
  micro_mempool
  micro_graph
  micro_network
  micro_wire
)

foreach(bench ${MICRO_BENCHES})
  add_executable(${bench} bench/${bench}.cpp)
  target_link_libraries(${bench} PRIVATE toposhot benchmark::benchmark)
  set_target_properties(${bench} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()
