-- trigger sql_PaperTrigger_vendor_update (sqlite dialect)
-- fires AFTER DELETE OR INSERT OR UPDATE ON VENDOR; the backend materializes
-- __trg_vendor_delta_deleted, __trg_vendor_delta_inserted, __trg_vendor_pruned_deleted, __trg_vendor_pruned_inserted from the firing's net transition tables, then runs:
-- translated from XML trigger(s) on path view('catalog')/product
WITH q1_dT_V AS (
  SELECT "V#ak1"."vid" AS "V#ak1.vid", "V#ak1"."pid" AS "V#ak1.pid", "V#ak1"."price" AS "V#ak1.price"
  FROM "__trg_vendor_pruned_inserted" AS "V#ak1"
),
q2_ak_keys_V AS (
  SELECT "V#ak1.vid" AS "V#ak1.vid",
         "V#ak1.pid" AS "V#ak1.pid"
  FROM q1_dT_V
),
q3_distinct_affected_keys AS (
  SELECT "V#ak1.vid", "V#ak1.pid"
  FROM q2_ak_keys_V
  GROUP BY "V#ak1.vid", "V#ak1.pid"
),
q4_Table AS (
  SELECT "V"."vid" AS "V.vid", "V"."pid" AS "V.pid", "V"."price" AS "V.price"
  FROM "vendor" AS "V"
),
q5_affected_key_semijoin AS (
  SELECT *
  FROM q3_distinct_affected_keys, q4_Table
  WHERE "V#ak1.vid" IS "V.vid" AND "V#ak1.pid" IS "V.pid"
),
q6_semijoin_project AS (
  SELECT "V.vid" AS "V.vid",
         "V.pid" AS "V.pid",
         "V.price" AS "V.price"
  FROM q5_affected_key_semijoin
),
q7_construct_vendor AS (
  SELECT "V.vid" AS "V.vid",
         "V.pid" AS "V.pid"
  FROM q6_semijoin_project
),
q8_distinct_affected_keys AS (
  SELECT "V.pid"
  FROM q7_construct_vendor
  GROUP BY "V.pid"
),
q9_Table AS (
  SELECT "P"."pid" AS "P.pid", "P"."pname" AS "P.pname", "P"."mfr" AS "P.mfr"
  FROM "product" AS "P"
),
q10_affected_key_semijoin AS (
  SELECT *
  FROM q8_distinct_affected_keys, q9_Table
  WHERE "V.pid" IS "P.pid"
),
q11_semijoin_project AS (
  SELECT "P.pid" AS "P.pid",
         "P.pname" AS "P.pname",
         "P.mfr" AS "P.mfr"
  FROM q10_affected_key_semijoin
),
q12_join_product_vendor AS (
  SELECT *
  FROM q11_semijoin_project, q7_construct_vendor
  WHERE "P.pid" IS "V.pid"
),
q13_ak_join_group_2 AS (
  SELECT *
  FROM q12_join_product_vendor, q2_ak_keys_V
  WHERE "V.vid" IS "V#ak1.vid" AND "V.pid" IS "V#ak1.pid"
),
q14_ak_groups__2 AS (
  SELECT "P.pname"
  FROM q13_ak_join_group_2
  GROUP BY "P.pname"
),
q15_ak_group_keys__2 AS (
  SELECT "P.pname" AS "P.pname#ak2"
  FROM q14_ak_groups__2
),
q16_dT_V AS (
  SELECT "V#ak3"."vid" AS "V#ak3.vid", "V#ak3"."pid" AS "V#ak3.pid", "V#ak3"."price" AS "V#ak3.price"
  FROM "__trg_vendor_pruned_deleted" AS "V#ak3"
),
q17_ak_keys_V AS (
  SELECT "V#ak3.vid" AS "V#ak3.vid",
         "V#ak3.pid" AS "V#ak3.pid"
  FROM q16_dT_V
),
q18_distinct_affected_keys AS (
  SELECT "V#ak3.vid", "V#ak3.pid"
  FROM q17_ak_keys_V
  GROUP BY "V#ak3.vid", "V#ak3.pid"
),
q19_Table AS (
  SELECT "V"."vid" AS "V.vid", "V"."pid" AS "V.pid", "V"."price" AS "V.price"
  FROM (SELECT * FROM "vendor" WHERE ("vid", "pid") NOT IN (SELECT "vid", "pid" FROM "__trg_vendor_delta_inserted")
     UNION ALL SELECT * FROM "__trg_vendor_delta_deleted") AS "V"
),
q20_affected_key_semijoin AS (
  SELECT *
  FROM q18_distinct_affected_keys, q19_Table
  WHERE "V#ak3.vid" IS "V.vid" AND "V#ak3.pid" IS "V.pid"
),
q21_semijoin_project AS (
  SELECT "V.vid" AS "V.vid",
         "V.pid" AS "V.pid",
         "V.price" AS "V.price"
  FROM q20_affected_key_semijoin
),
q22_construct_vendor AS (
  SELECT "V.vid" AS "V.vid",
         "V.pid" AS "V.pid"
  FROM q21_semijoin_project
),
q23_distinct_affected_keys AS (
  SELECT "V.pid"
  FROM q22_construct_vendor
  GROUP BY "V.pid"
),
q24_Table AS (
  SELECT "P"."pid" AS "P.pid", "P"."pname" AS "P.pname", "P"."mfr" AS "P.mfr"
  FROM "product" AS "P"
),
q25_affected_key_semijoin AS (
  SELECT *
  FROM q23_distinct_affected_keys, q24_Table
  WHERE "V.pid" IS "P.pid"
),
q26_semijoin_project AS (
  SELECT "P.pid" AS "P.pid",
         "P.pname" AS "P.pname",
         "P.mfr" AS "P.mfr"
  FROM q25_affected_key_semijoin
),
q27_join_product_vendor AS (
  SELECT *
  FROM q26_semijoin_project, q22_construct_vendor
  WHERE "P.pid" IS "V.pid"
),
q28_ak_join_group_4 AS (
  SELECT *
  FROM q27_join_product_vendor, q17_ak_keys_V
  WHERE "V.vid" IS "V#ak3.vid" AND "V.pid" IS "V#ak3.pid"
),
q29_ak_groups__4 AS (
  SELECT "P.pname"
  FROM q28_ak_join_group_4
  GROUP BY "P.pname"
),
q30_ak_group_keys__4 AS (
  SELECT "P.pname" AS "P.pname#ak4"
  FROM q29_ak_groups__4
),
q31_affected_keys AS (
  SELECT "P.pname#ak2" AS "P.pname#key" FROM q15_ak_group_keys__2
  UNION
  SELECT "P.pname#ak4" AS "P.pname#key" FROM q30_ak_group_keys__4
),
q32_distinct_affected_keys AS (
  SELECT "P.pname#key"
  FROM q31_affected_keys
  GROUP BY "P.pname#key"
),
q33_affected_key_semijoin AS (
  SELECT *
  FROM q32_distinct_affected_keys, q9_Table
  WHERE "P.pname#key" IS "P.pname"
),
q34_semijoin_project AS (
  SELECT "P.pid" AS "P.pid",
         "P.pname" AS "P.pname",
         "P.mfr" AS "P.mfr"
  FROM q33_affected_key_semijoin
),
q35_distinct_affected_keys AS (
  SELECT "P.pid"
  FROM q34_semijoin_project
  GROUP BY "P.pid"
),
q36_affected_key_semijoin AS (
  SELECT *
  FROM q35_distinct_affected_keys, q4_Table
  WHERE "P.pid" IS "V.pid"
),
q37_semijoin_project AS (
  SELECT "V.vid" AS "V.vid",
         "V.pid" AS "V.pid",
         "V.price" AS "V.price"
  FROM q36_affected_key_semijoin
),
q38_construct_vendor AS (
  SELECT json_array('e', 'vendor', json_object(), CASE WHEN "V.pid" IS NULL THEN json_array('e', 'pid', json_object()) ELSE json_array('e', 'pid', json_object(), CASE WHEN typeof("V.pid") = 'real' THEN json_array('r', printf('%!.17g', "V.pid")) ELSE "V.pid" END) END, CASE WHEN "V.vid" IS NULL THEN json_array('e', 'vid', json_object()) ELSE json_array('e', 'vid', json_object(), CASE WHEN typeof("V.vid") = 'real' THEN json_array('r', printf('%!.17g', "V.vid")) ELSE "V.vid" END) END, CASE WHEN "V.price" IS NULL THEN json_array('e', 'price', json_object()) ELSE json_array('e', 'price', json_object(), CASE WHEN typeof("V.price") = 'real' THEN json_array('r', printf('%!.17g', "V.price")) ELSE "V.price" END) END) AS "vendor__node",
         "V.vid" AS "V.vid",
         "V.pid" AS "V.pid"
  FROM q37_semijoin_project
),
q39_join_product_vendor AS (
  SELECT *
  FROM q34_semijoin_project, q38_construct_vendor
  WHERE "P.pid" IS "V.pid"
),
q40_group_product AS (
  SELECT "P.pname", json_array('f', 2, json_group_array(json_array(CASE WHEN typeof("V.vid") = 'real' THEN json_array('r', printf('%!.17g', "V.vid")) ELSE "V.vid" END, CASE WHEN typeof("V.pid") = 'real' THEN json_array('r', printf('%!.17g', "V.pid")) ELSE "V.pid" END, json("vendor__node"))) FILTER (WHERE "vendor__node" IS NOT NULL)) AS "frag_vendor", COUNT("V.vid") AS "count_vendor"
  FROM q39_join_product_vendor
  GROUP BY "P.pname"
),
q41_having_product AS (
  SELECT *
  FROM q40_group_product
  WHERE ("count_vendor" >= 2)
),
q42_construct_product AS (
  SELECT json_array('e', 'product', json_object('name', CASE WHEN typeof("P.pname") = 'real' THEN json_array('r', printf('%!.17g', "P.pname")) ELSE "P.pname" END), json("frag_vendor")) AS "product__node",
         "P.pname" AS "P.pname"
  FROM q41_having_product
),
q43_path_product AS (
  SELECT "product__node" AS "product__node",
         "P.pname" AS "P.pname"
  FROM q42_construct_product
),
q44_new_nodes_pushed_join AS (
  SELECT *
  FROM q31_affected_keys, q43_path_product
  WHERE "P.pname#key" IS "P.pname"
),
q45_new_nodes_pushed AS (
  SELECT "product__node" AS "NEW_NODE",
         "P.pname" AS "P.pname"
  FROM q44_new_nodes_pushed_join
),
q46_distinct_affected_keys AS (
  SELECT "P.pname#key"
  FROM q31_affected_keys
  GROUP BY "P.pname#key"
),
q47_affected_key_semijoin AS (
  SELECT *
  FROM q46_distinct_affected_keys, q24_Table
  WHERE "P.pname#key" IS "P.pname"
),
q48_semijoin_project AS (
  SELECT "P.pid" AS "P.pid",
         "P.pname" AS "P.pname",
         "P.mfr" AS "P.mfr"
  FROM q47_affected_key_semijoin
),
q49_distinct_affected_keys AS (
  SELECT "P.pid"
  FROM q48_semijoin_project
  GROUP BY "P.pid"
),
q50_affected_key_semijoin AS (
  SELECT *
  FROM q49_distinct_affected_keys, q19_Table
  WHERE "P.pid" IS "V.pid"
),
q51_semijoin_project AS (
  SELECT "V.vid" AS "V.vid",
         "V.pid" AS "V.pid",
         "V.price" AS "V.price"
  FROM q50_affected_key_semijoin
),
q52_construct_vendor AS (
  SELECT json_array('e', 'vendor', json_object(), CASE WHEN "V.pid" IS NULL THEN json_array('e', 'pid', json_object()) ELSE json_array('e', 'pid', json_object(), CASE WHEN typeof("V.pid") = 'real' THEN json_array('r', printf('%!.17g', "V.pid")) ELSE "V.pid" END) END, CASE WHEN "V.vid" IS NULL THEN json_array('e', 'vid', json_object()) ELSE json_array('e', 'vid', json_object(), CASE WHEN typeof("V.vid") = 'real' THEN json_array('r', printf('%!.17g', "V.vid")) ELSE "V.vid" END) END, CASE WHEN "V.price" IS NULL THEN json_array('e', 'price', json_object()) ELSE json_array('e', 'price', json_object(), CASE WHEN typeof("V.price") = 'real' THEN json_array('r', printf('%!.17g', "V.price")) ELSE "V.price" END) END) AS "vendor__node",
         "V.vid" AS "V.vid",
         "V.pid" AS "V.pid"
  FROM q51_semijoin_project
),
q53_join_product_vendor AS (
  SELECT *
  FROM q48_semijoin_project, q52_construct_vendor
  WHERE "P.pid" IS "V.pid"
),
q54_group_product AS (
  SELECT "P.pname", json_array('f', 2, json_group_array(json_array(CASE WHEN typeof("V.vid") = 'real' THEN json_array('r', printf('%!.17g', "V.vid")) ELSE "V.vid" END, CASE WHEN typeof("V.pid") = 'real' THEN json_array('r', printf('%!.17g', "V.pid")) ELSE "V.pid" END, json("vendor__node"))) FILTER (WHERE "vendor__node" IS NOT NULL)) AS "frag_vendor", COUNT("V.vid") AS "count_vendor"
  FROM q53_join_product_vendor
  GROUP BY "P.pname"
),
q55_having_product AS (
  SELECT *
  FROM q54_group_product
  WHERE ("count_vendor" >= 2)
),
q56_construct_product AS (
  SELECT json_array('e', 'product', json_object('name', CASE WHEN typeof("P.pname") = 'real' THEN json_array('r', printf('%!.17g', "P.pname")) ELSE "P.pname" END), json("frag_vendor")) AS "product__node",
         "P.pname" AS "P.pname"
  FROM q55_having_product
),
q57_path_product AS (
  SELECT "product__node" AS "product__node",
         "P.pname" AS "P.pname"
  FROM q56_construct_product
),
q58_old_nodes_pushed_join AS (
  SELECT *
  FROM q31_affected_keys, q57_path_product
  WHERE "P.pname#key" IS "P.pname"
),
q59_old_nodes_pushed AS (
  SELECT "product__node" AS "OLD_NODE",
         "P.pname" AS "P.pname#old"
  FROM q58_old_nodes_pushed_join
),
q60_an_update_join AS (
  SELECT *
  FROM q45_new_nodes_pushed, q59_old_nodes_pushed
  WHERE "P.pname" IS "P.pname#old"
),
q61_affected_nodes AS (
  SELECT "OLD_NODE" AS "OLD_NODE",
         "NEW_NODE" AS "NEW_NODE",
         "P.pname" AS "P.pname"
  FROM q60_an_update_join
)
SELECT "OLD_NODE", "NEW_NODE", "P.pname"
FROM q61_affected_nodes
ORDER BY "P.pname"
